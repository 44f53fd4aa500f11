// sb_traced: the traced run. Builds the serving stack in-process (as
// `proximity_cli serve` does in network mode), with a benchmark-owned
// VectorIndex wrapper between BatchingDriver and the index, and drives it
// over loopback with the same load generator as the timed runs.
//
//   sb_traced --workload NAME --seed N --seconds S --cli PATH --out DIR
//
// The wrapper records a span for every SearchBatch, Insert and Delete the
// engine makes. Quarters of the run alternate untraced and traced, so the
// span recording's own cost shows as obs.trace_overhead_pct. After the
// load, the same inputs are replayed through HashEmbedder::EmbedBatch and
// the default tenant's two cache tiers to time them. The run writes its
// spans (spans.jsonl) and a per-layer self-time table (selftime.txt)
// that accounts for the client-observed mean latency with a stated
// residual. No span is added inside the program.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "embed/hash_embedder.h"
#include "index/index_factory.h"
#include "index/sharded_index.h"
#include "net/server.h"
#include "rag/batching_driver.h"
#include "sb.h"
#include "tenant/tenant_registry.h"
#include "workloads.h"

namespace sb {
namespace {

namespace px = proximity;

struct Span {
  const char* name;
  int backend;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::size_t rows;
};

// Spans stay in memory until the run ends.
class SpanLog {
 public:
  void Record(const char* name, int backend, std::int64_t start,
              std::int64_t end, std::size_t rows) {
    if (!on_.load(std::memory_order_relaxed)) return;
    std::lock_guard lock(mu_);
    spans_.push_back(Span{name, backend, start, end, rows});
  }
  void Enable(bool on) { on_.store(on); }
  std::vector<Span> Take() {
    std::lock_guard lock(mu_);
    return std::move(spans_);
  }

 private:
  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Times every index call the engine makes, where it makes it.
class TimedIndex final : public px::VectorIndex {
 public:
  TimedIndex(px::VectorIndex& inner, SpanLog& log, int backend)
      : inner_(inner), log_(log), backend_(backend) {}

  std::size_t dim() const noexcept override { return inner_.dim(); }
  px::Metric metric() const noexcept override { return inner_.metric(); }
  std::size_t size() const noexcept override { return inner_.size(); }
  px::VectorId Add(std::span<const float> vec) override {
    return inner_.Add(vec);
  }
  std::vector<px::Neighbor> Search(std::span<const float> query,
                                   std::size_t k) const override {
    const std::int64_t t = NowNs();
    auto out = inner_.Search(query, k);
    log_.Record("index.search", backend_, t, NowNs(), 1);
    return out;
  }
  std::vector<std::vector<px::Neighbor>> SearchBatch(
      const px::Matrix& queries, std::size_t k) const override {
    const std::int64_t t = NowNs();
    auto out = inner_.SearchBatch(queries, k);
    log_.Record("index.search", backend_, t, NowNs(), queries.rows());
    return out;
  }
  std::vector<px::Neighbor> SearchFiltered(
      std::span<const float> query, std::size_t k,
      const Filter& filter) const override {
    return inner_.SearchFiltered(query, k, filter);
  }
  bool SupportsMutation() const noexcept override {
    return inner_.SupportsMutation();
  }
  px::VectorId Insert(std::span<const float> vec) override {
    const std::int64_t t = NowNs();
    const auto id = inner_.Insert(vec);
    log_.Record("index.insert", backend_, t, NowNs(), 1);
    return id;
  }
  bool Delete(px::VectorId id) override {
    const std::int64_t t = NowNs();
    const bool ok = inner_.Delete(id);
    log_.Record("index.delete", backend_, t, NowNs(), 1);
    return ok;
  }
  std::size_t Consolidate() override { return inner_.Consolidate(); }
  std::uint64_t generation() const noexcept override {
    return inner_.generation();
  }
  std::string Describe() const override { return inner_.Describe(); }

 private:
  px::VectorIndex& inner_;
  SpanLog& log_;
  int backend_;
};

// One in-process backend with the settings `proximity_cli serve` uses.
struct Stack {
  std::unique_ptr<px::VectorIndex> index;
  std::unique_ptr<TimedIndex> timed;
  std::unique_ptr<px::TenantRegistry> registry;
  std::unique_ptr<px::BatchingDriver> driver;
  std::unique_ptr<px::net::Server> server;

  Stack(const WorkloadDef& w, const px::HashEmbedder& embedder,
        const px::Matrix& passages, std::size_t part, SpanLog& log) {
    px::IndexSpec ispec;
    ispec.kind = w.index;
    ispec.storage = w.storage;
    ispec.hnsw_ef_construction = 100;  // the serve command's defaults
    ispec.hnsw_ef_search = 64;
    ispec.ivf_nprobe = 8;
    ispec.rerank_factor = 4;
    px::ShardedIndexOptions shard_opts;
    shard_opts.num_shards = w.shards;
    if (w.routed()) {
      index = px::BuildPartitionedIndex(ispec, passages, part, w.partitions,
                                        shard_opts);
    } else {
      index = px::BuildShardedIndex(ispec, passages, shard_opts);
    }
    timed = std::make_unique<TimedIndex>(*index, log, static_cast<int>(part));
    px::TenantRegistryOptions topts;
    topts.cache_defaults.capacity = w.capacity;
    topts.cache_defaults.tolerance = static_cast<float>(w.tau_doc);
    topts.cache_defaults.metric = index->metric();
    if (!px::ParseStalenessPolicy(w.staleness,
                                  &topts.cache_defaults.staleness)) {
      throw std::invalid_argument("unknown staleness " + w.staleness);
    }
    topts.answer_defaults.metric = index->metric();
    topts.answer_defaults.capacity = w.capacity;
    topts.answer_defaults.tolerance = static_cast<float>(w.tau_answer);
    registry = std::make_unique<px::TenantRegistry>(embedder.dim(), topts);
    px::BatchingDriverOptions dopts;
    dopts.answer_reuse = true;
    dopts.top_k = w.top_k;
    driver = std::make_unique<px::BatchingDriver>(*timed, *registry,
                                                  &embedder, dopts);
    if (timed->SupportsMutation()) driver->EnableMutation(*timed);
    server = std::make_unique<px::net::Server>(*driver,
                                               px::net::ServerOptions{});
    server->Start();
  }
  ~Stack() {
    server->Stop();
    driver->Shutdown();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

double Overlap(std::int64_t a0, std::int64_t a1, std::int64_t b0,
               std::int64_t b1) {
  return static_cast<double>(
      std::max<std::int64_t>(0, std::min(a1, b1) - std::max(a0, b0)));
}

// Mean microseconds per call of `fn` over `n` calls.
template <typename Fn>
double TimeEach(std::size_t n, Fn fn) {
  if (n == 0) return 0.0;
  const std::int64_t t = NowNs();
  for (std::size_t i = 0; i < n; ++i) fn(i);
  return static_cast<double>(NowNs() - t) / 1e3 / static_cast<double>(n);
}

struct Phase {
  LoadResult load;
  bool traced;
};

int Main(int argc, char** argv) {
  const RunArgs a = ParseRunArgs(argc, argv, "sb_traced");
  std::filesystem::create_directories(a.out);
  const WorkloadDef w = MakeWorkload(a.workload, a.seed);
  const px::HashEmbedder embedder;
  SpanLog log;
  std::vector<std::unique_ptr<Stack>> stacks;
  {
    const px::Matrix passages = embedder.EmbedBatch(w.corpus->passages);
    for (std::size_t p = 0; p < w.partitions; ++p) {
      stacks.push_back(std::make_unique<Stack>(w, embedder, passages, p, log));
    }
  }
  std::vector<int> router_pids;
  int port = stacks[0]->server->port();
  if (w.routed()) {
    std::vector<int> ports;
    for (const auto& s : stacks) ports.push_back(s->server->port());
    int admin = 0;
    if (!StartRouter(a.cli, ports, {}, a.out + "/router", &router_pids, &port,
                     &admin)) {
      std::fprintf(stderr, "sb_traced: the router did not start\n");
      for (const int pid : router_pids) StopProcess(pid, 20.0);
      return 2;
    }
  }

  // Quarters alternate untraced and traced; only the first warms up.
  std::vector<Phase> phases;
  Traffic traffic = w.traffic;
  std::uint64_t writes_done = 0;
  for (int q = 0; q < 4; ++q) {
    const bool traced = q % 2 == 1;
    log.Enable(traced);
    phases.push_back(Phase{RunLoad(port, traffic, a.seconds / 4, {}), traced});
    log.Enable(false);
    traffic.warm_per_caller = 0;
    // The writer carries on where it stopped: no id is deleted twice.
    for (const Sample& s : phases.back().load.samples) {
      if (s.op != kOpQuery) ++writes_done;
    }
    if (w.traffic.next_write) {
      const auto next = w.traffic.next_write;
      const std::uint64_t offset = writes_done;
      traffic.next_write = [next, offset](std::uint64_t i) {
        return next(i + offset);
      };
    }
  }
  for (const int pid : router_pids) StopProcess(pid, 20.0);
  std::vector<Span> spans = log.Take();

  // Replays on the same inputs, against the default tenant's tiers.
  std::vector<std::string> texts;
  for (const Phase& p : phases) {
    for (const Sample& s : p.load.samples) {
      if (s.op == kOpQuery && s.timed) texts.push_back(p.load.texts[s.text]);
    }
  }
  double submitted = 0, batches = 0, answer_hits = 0, misses = 0;
  for (const auto& s : stacks) {
    const auto st = s->driver->stats();
    submitted += static_cast<double>(st.submitted);
    batches += static_cast<double>(st.batches);
    answer_hits += static_cast<double>(st.answer_hits);
    misses += static_cast<double>(st.retrieved + st.coalesced);
  }
  const double batch = batches > 0 ? submitted / batches : 1.0;
  const std::size_t chunk = std::max<std::size_t>(1, std::lround(batch));
  const std::size_t replay = std::min<std::size_t>(texts.size(), 4096);
  std::vector<std::vector<std::string>> chunks;
  for (std::size_t i = 0; i < replay; i += chunk) {
    chunks.emplace_back(texts.begin() + static_cast<long>(i),
                        texts.begin() + static_cast<long>(std::min(replay, i + chunk)));
  }
  const double embed_batch_us = TimeEach(chunks.size(), [&](std::size_t i) {
    (void)embedder.EmbedBatch(chunks[i]);
  });
  const double embed_us_per_query =
      replay > 0 ? embed_batch_us * static_cast<double>(chunks.size()) /
                       static_cast<double>(replay)
                 : 0.0;
  const px::Matrix probes = embedder.EmbedBatch(
      std::vector<std::string>(texts.begin(),
                               texts.begin() + static_cast<long>(replay)));
  auto& cache = stacks[0]->registry->CacheFor(px::kDefaultTenant);
  auto& acache = stacks[0]->registry->AnswerCacheFor(px::kDefaultTenant);
  const double cache_lookup_us = TimeEach(replay, [&](std::size_t i) {
    (void)cache.Lookup(probes.Row(i));
  });
  const double acache_lookup_us = TimeEach(replay, [&](std::size_t i) {
    (void)acache.Lookup(probes.Row(i));
  });
  const std::vector<px::VectorId> docs(w.top_k, 0);
  const std::size_t inserts = std::min<std::size_t>(replay, 512);
  const double cache_insert_us = TimeEach(inserts, [&](std::size_t i) {
    cache.Insert(probes.Row(i), docs);
  });
  double acache_insert_us = 0;
  if (inserts > 0) {
    if (auto hit = acache.Lookup(probes.Row(0))) {
      const auto payload = hit->answer;
      acache_insert_us = TimeEach(inserts, [&](std::size_t i) {
        acache.Insert(probes.Row(i), payload);
      });
    }
  }
  stacks.clear();

  // ------------------------------------------- per-request attribution
  // Each backend runs its batches one at a time on one flusher thread,
  // so an index span that overlaps a request's processing window is part
  // of that request's blocking path. Embed, cache scans and inserts are
  // not wrapped: their per-request share is the replayed cost times the
  // batch work a request waits behind.
  double n = 0, lat = 0, wire = 0, queue = 0, search = 0, write = 0;
  double qps_traced = 0, qps_untraced = 0, traced_time = 0, untraced_time = 0,
         traced_ok = 0, untraced_ok = 0;
  bool correct = true;
  std::ofstream out(a.out + "/spans.jsonl");
  std::uint64_t request_id = 0;
  std::sort(spans.begin(), spans.end(),
            [](const Span& x, const Span& y) { return x.start_ns < y.start_ns; });
  for (const Phase& p : phases) {
    const LoadResult& r = p.load;
    correct = correct && r.transport_ok;
    double ok = 0;
    for (const Sample& s : r.samples) {
      if (s.status != kStatusOk) correct = false;
      if (!s.timed || s.status != kStatusOk || s.op != kOpQuery) continue;
      ok += 1;
      if (!p.traced) continue;
      const std::uint64_t id = ++request_id;
      const double l = static_cast<double>(s.recv_ns - s.send_ns);
      const double wi = l - static_cast<double>(s.server_ns);
      const std::int64_t end = s.recv_ns - static_cast<std::int64_t>(wi / 2);
      const std::int64_t begin =
          end - static_cast<std::int64_t>(s.server_ns - s.queue_ns);
      std::vector<double> per_backend_search(w.partitions, 0.0),
          per_backend_write(w.partitions, 0.0);
      const auto first = std::lower_bound(
          spans.begin(), spans.end(), begin - 1'000'000'000,
          [](const Span& x, std::int64_t t) { return x.start_ns < t; });
      for (auto it = first; it != spans.end() && it->start_ns < end; ++it) {
        const double o = Overlap(it->start_ns, it->end_ns, begin, end);
        if (o <= 0) continue;
        auto& bucket = std::string(it->name) == "index.search"
                           ? per_backend_search
                           : per_backend_write;
        bucket[static_cast<std::size_t>(it->backend)] += o;
      }
      n += 1;
      lat += l;
      wire += wi;
      queue += static_cast<double>(s.queue_ns);
      // Legs run in parallel; the slower one blocks the answer.
      search += *std::max_element(per_backend_search.begin(),
                                  per_backend_search.end());
      write += *std::max_element(per_backend_write.begin(),
                                 per_backend_write.end());
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"name\": \"request\", \"id\": %llu, \"parent\": 0, "
                    "\"request\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(id),
                    static_cast<long long>(s.send_ns),
                    static_cast<long long>(s.recv_ns));
      out << line;
      std::snprintf(line, sizeof(line),
                    "{\"name\": \"server.process\", \"id\": %llu, "
                    "\"parent\": %llu, \"request\": %llu, \"start_ns\": %lld, "
                    "\"end_ns\": %lld}\n",
                    static_cast<unsigned long long>(id) << 32,
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(id),
                    static_cast<long long>(begin),
                    static_cast<long long>(end));
      out << line;
    }
    const double span_s =
        static_cast<double>(r.t_end_ns - r.t0_ns) / 1e9;
    (p.traced ? traced_time : untraced_time) += span_s;
    (p.traced ? traced_ok : untraced_ok) += ok;
  }
  // Engine spans belong to every request whose window they overlap; the
  // request id 0 marks them as batch-shared.
  for (const Span& sp : spans) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"backend\": %d, \"parent\": 0, "
                  "\"request\": 0, \"rows\": %zu, \"start_ns\": %lld, "
                  "\"end_ns\": %lld}\n",
                  sp.name, sp.backend, sp.rows,
                  static_cast<long long>(sp.start_ns),
                  static_cast<long long>(sp.end_ns));
    out << line;
  }
  out.close();
  qps_traced = traced_time > 0 ? traced_ok / traced_time : 0;
  qps_untraced = untraced_time > 0 ? untraced_ok / untraced_time : 0;

  const double answer_miss = submitted > 0 ? 1 - answer_hits / submitted : 0;
  const double miss = submitted > 0 ? misses / submitted : 0;
  const double k = n > 0 ? 1.0 / n / 1e3 : 0.0;  // ns sums -> mean us
  struct Row {
    const char* layer;
    double us;
  };
  std::vector<Row> rows = {
      {"net (wire, both directions)", wire * k},
      {"rag (admission queue wait)", queue * k},
      {"embed (EmbedBatch of the batch)", embed_batch_us},
      {"cache: answer tier lookups", batch * acache_lookup_us},
      {"cache: document tier lookups", batch * answer_miss * cache_lookup_us},
      {"index (SearchBatch, traced)", search * k},
      {"index (Insert/Delete, traced)", write * k},
      {"cache: inserts after retrieval",
       batch * miss * (cache_insert_us + acache_insert_us)},
  };
  const double mean = lat * k;
  double sum = 0;
  for (const Row& row : rows) sum += row.us;
  const double residual = mean - sum;

  std::string table;
  char line[200];
  std::snprintf(line, sizeof(line),
                "%-34s %12s %8s\n", "layer (per request, traced quarters)",
                "mean us", "share");
  table += line;
  for (const Row& row : rows) {
    std::snprintf(line, sizeof(line), "%-34s %12.2f %7.1f%%\n", row.layer,
                  row.us, mean > 0 ? 100 * row.us / mean : 0.0);
    table += line;
  }
  std::snprintf(line, sizeof(line), "%-34s %12.2f %7.1f%%\n",
                "residual (unattributed)", residual,
                mean > 0 ? 100 * residual / mean : 0.0);
  table += line;
  std::snprintf(line, sizeof(line), "%-34s %12.2f   (n=%.0f, batch=%.2f)\n",
                "client-observed mean latency", mean, n, batch);
  table += line;
  std::ofstream(a.out + "/selftime.txt") << table;
  std::fputs(table.c_str(), stdout);

  std::vector<double> ins, del;
  double search_ns = 0, search_rows = 0;
  for (const Span& sp : spans) {
    const double us = static_cast<double>(sp.end_ns - sp.start_ns) / 1e3;
    const std::string name = sp.name;
    if (name == "index.search") {
      search_ns += us * 1e3;
      search_rows += static_cast<double>(sp.rows);
    } else if (name == "index.insert") {
      ins.push_back(us);
    } else if (name == "index.delete") {
      del.push_back(us);
    }
  }
  std::printf(
      "{\"correct\": %s, \"layer\": {\"embed.us_per_query\": %.6g, "
      "\"cache.lookup_us\": %.6g, \"acache.lookup_us\": %.6g, "
      "\"index.search_us_per_query\": %.6g, \"index.insert_us_p50\": %.6g, "
      "\"index.delete_us_p50\": %.6g, \"obs.trace_overhead_pct\": %.6g, "
      "\"trace.residual_pct\": %.6g}}\n",
      correct ? "true" : "false", embed_us_per_query, cache_lookup_us,
      acache_lookup_us,
      search_rows > 0 ? search_ns / search_rows / 1e3 : 0.0,
      Percentile(ins, 0.5), Percentile(del, 0.5),
      qps_untraced > 0 ? 100 * (qps_untraced - qps_traced) / qps_untraced : 0,
      mean > 0 ? 100 * residual / mean : 0.0);
  return 0;
}

}  // namespace
}  // namespace sb

int main(int argc, char** argv) {
  try {
    return sb::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sb_traced: %s\n", e.what());
    return 2;
  }
}
