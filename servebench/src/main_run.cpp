// sb_run: one timed run of one workload against real `proximity_cli`
// processes.
//
//   sb_run --workload NAME --seed N --seconds S --cli PATH --out DIR
//
// Boots the workload's program processes (timing their set-up), warms
// both cache tiers, snapshots /metrics and CPU, drives the timed phase,
// snapshots again, stops the processes, then checks every response
// against values computed here. Prints one JSON object as its last line
// of standard output and writes the raw per-request samples to DIR.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "embed/hash_embedder.h"
#include "sb.h"
#include "workloads.h"

namespace sb {
namespace {

// The running program processes of one workload.
struct Programs {
  std::vector<int> pids;         // backends first, then the router
  std::vector<int> admin_ports;  // same order
  int port = 0;                  // where clients connect
  double setup_s = 0;
  std::size_t backends = 0;

  ~Programs() {
    for (const int pid : pids) StopProcess(pid, 20.0);
  }
};

bool StartPrograms(const WorkloadDef& w, const RunArgs& a, Programs* p) {
  const std::int64_t t0 = NowNs();
  std::vector<std::string> port_files, admin_files;
  for (std::size_t b = 0; b < w.partitions; ++b) {
    const std::string stem = a.out + "/backend" + std::to_string(b);
    std::vector<std::string> args = ServeArgs(w, b);
    args.insert(args.end(), {"--listen", "127.0.0.1:0",
                             "port_file=" + stem + ".port", "--admin",
                             "127.0.0.1:0", "admin_port_file=" + stem + ".admin"});
    std::remove((stem + ".port").c_str());
    std::remove((stem + ".admin").c_str());
    const int pid = Spawn(a.cli, args, stem + ".log");
    if (pid < 0) return false;
    p->pids.push_back(pid);
    port_files.push_back(stem + ".port");
    admin_files.push_back(stem + ".admin");
  }
  p->backends = w.partitions;
  std::vector<int> ports, admins;
  if (!WaitPortFiles(port_files, p->pids, 120, &ports) ||
      !WaitPortFiles(admin_files, p->pids, 120, &admins)) {
    return false;
  }
  p->admin_ports = admins;
  p->port = ports[0];
  if (w.routed()) {
    int admin = 0;
    if (!StartRouter(a.cli, ports, admins, a.out + "/router", &p->pids,
                     &p->port, &admin)) {
      return false;
    }
    p->admin_ports.push_back(admin);
  }
  p->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return true;
}

using Metrics = std::map<std::string, double>;

std::vector<Metrics> Scrape(const Programs& p) {
  std::vector<Metrics> out;
  for (const int port : p.admin_ports) {
    out.push_back(ParseMetrics(HttpGet(port, "/metrics")));
  }
  return out;
}

// Prometheus spells the documented dotted names with underscores.
double Get(const Metrics& m, const std::string& name) {
  std::string key = name;
  std::replace(key.begin(), key.end(), '.', '_');
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

// Sum over processes [lo, hi) of after - before.
double Delta(const std::vector<Metrics>& before,
             const std::vector<Metrics>& after, const std::string& name,
             std::size_t lo, std::size_t hi) {
  double d = 0;
  for (std::size_t i = lo; i < hi && i < after.size(); ++i) {
    d += Get(after[i], name) - Get(before[i], name);
  }
  return d;
}

double Ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

void EmbedAll(const std::vector<std::string>& texts,
              const proximity::HashEmbedder& embedder, VectorStore* store,
              std::size_t rows) {
  store->dim = embedder.dim();
  store->data.assign(std::max(rows, texts.size()) * store->dim, 0.f);
  const std::size_t workers = 4;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < workers; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < texts.size(); i += workers) {
        embedder.EmbedInto(texts[i],
                           std::span<float>(store->data.data() + i * store->dim,
                                            store->dim));
      }
    });
  }
  for (auto& th : pool) th.join();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonObject(const std::vector<std::pair<std::string, double>>& kv) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    out += (i ? ", " : "") + JsonString(kv[i].first) + ": " +
           JsonNumber(kv[i].second);
  }
  return out + "}";
}

void WriteSamples(const std::string& path, const LoadResult& r) {
  std::ofstream out(path);
  out << "caller,op,timed,question,target,text,sched_ns,send_ns,recv_ns,"
         "queue_ns,server_ns,status,flags,docs\n";
  for (const Sample& s : r.samples) {
    out << s.caller << ',' << s.op << ',' << s.timed << ',' << s.question
        << ',' << s.target << ',' << s.text << ',' << s.sched_ns - r.t0_ns
        << ',' << s.send_ns - r.t0_ns << ',' << s.recv_ns - r.t0_ns << ','
        << s.queue_ns << ',' << s.server_ns << ',' << s.status << ','
        << s.flags << ',';
    for (std::uint32_t i = 0; i < s.doc_n; ++i) {
      out << (i ? ";" : "") << r.docs[s.doc_off + i];
    }
    out << '\n';
  }
}

constexpr std::size_t kRecallSample = 32;
// Inserted ids index the benchmark's own row store; an id past this is
// not stored (the live-id check above has already judged it).
constexpr std::int64_t kMaxRowId = std::int64_t{1} << 26;
constexpr double kWindowSeconds = 1.0;

int Main(int argc, char** argv) {
  const RunArgs a = ParseRunArgs(argc, argv, "sb_run");
  std::filesystem::create_directories(a.out);
  WorkloadDef w = MakeWorkload(a.workload, a.seed);
  const proximity::Workload& corpus = *w.corpus;
  const std::size_t n_corpus = corpus.passages.size();

  Programs programs;
  if (!StartPrograms(w, a, &programs)) {
    std::fprintf(stderr, "sb_run: program processes did not start (see %s)\n",
                 a.out.c_str());
    return 2;
  }
  std::vector<Metrics> m_before, m_after;
  std::vector<double> rss_kib;
  // Program CPU at each window boundary of the timed phase: throughput,
  // the latency tail and CPU per request are interquartile means over
  // windows, so a few stalled windows (a noisy neighbour on the host)
  // move them less.
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(a.seconds / kWindowSeconds)));
  const double window_s = a.seconds / static_cast<double>(windows);
  std::vector<double> window_cpu(windows + 1, 0.0);
  std::thread sampler;
  PhaseHooks hooks;
  hooks.after_warm = [&] { m_before = Scrape(programs); };
  hooks.on_start = [&](std::int64_t t0) {
    sampler = std::thread([&, t0] {
      for (std::size_t i = 0; i <= windows; ++i) {
        const auto at = t0 + static_cast<std::int64_t>(
                                 static_cast<double>(i) * window_s * 1e9);
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::max<std::int64_t>(0, at - NowNs())));
        for (const int pid : programs.pids) window_cpu[i] += CpuMicros(pid);
      }
    });
  };
  hooks.after_timed = [&] {
    m_after = Scrape(programs);
    for (const int pid : programs.pids) rss_kib.push_back(PeakRssKib(pid));
  };
  LoadResult r = RunLoad(programs.port, w.traffic, a.seconds, hooks);
  sampler.join();
  for (int& pid : programs.pids) {
    StopProcess(pid, 20.0);
    pid = -1;
  }
  WriteSamples(a.out + "/samples.csv", r);

  // ------------------------------------------------------------ checks
  std::vector<std::string> errors;
  auto fail = [&](const std::string& e) {
    if (errors.size() < 20) errors.push_back(e);
  };
  if (!r.transport_ok) fail("a connection failed or sent a malformed frame");

  proximity::HashEmbedder embedder;
  VectorStore queries;
  EmbedAll(r.texts, embedder, &queries, 0);

  // Corpus rows, plus every passage the writer inserted at its new id.
  std::vector<std::string> rows(corpus.passages);
  ChurnChecker churn(static_cast<std::int64_t>(n_corpus));
  std::vector<const Sample*> writes;
  for (const Sample& s : r.samples) {
    if (s.op != kOpQuery && s.status == kStatusOk) writes.push_back(&s);
  }
  std::sort(writes.begin(), writes.end(), [](const Sample* x, const Sample* y) {
    return x->recv_ns < y->recv_ns;
  });
  std::size_t deletes_acked = 0;
  for (const Sample* s : writes) {
    std::string e;
    if (s->op == kOpInsert) {
      if (s->doc_n != 1) {
        fail("INSERT answered with " + std::to_string(s->doc_n) + " ids");
        continue;
      }
      const std::int64_t id = r.docs[s->doc_off];
      e = churn.OnInsertAck(id, s->send_ns, s->recv_ns);
      if (id >= 0 && id < kMaxRowId) {
        if (static_cast<std::size_t>(id) >= rows.size()) rows.resize(id + 1);
        rows[static_cast<std::size_t>(id)] = r.texts[s->text];
      }
    } else {
      e = churn.OnDeleteAck(static_cast<std::int64_t>(s->target), s->recv_ns);
      ++deletes_acked;
    }
    if (!e.empty()) fail(e);
  }
  VectorStore store;
  EmbedAll(rows, embedder, &store, rows.size());

  const std::size_t legs = w.partitions;
  const std::size_t stripe = (n_corpus + legs - 1) / legs;
  auto split = [&](const Sample& s) {
    std::vector<Part> parts(legs);
    for (std::uint32_t i = 0; i < s.doc_n; ++i) {
      const std::int64_t id = r.docs[s.doc_off + i];
      const std::size_t leg =
          legs == 1 || id < 0
              ? 0
              : std::min(legs - 1, static_cast<std::size_t>(id) / stripe);
      parts[leg].push_back(id);
    }
    return parts;
  };
  // τ comparisons get a little room for the program's float arithmetic.
  const auto within = [](double tau) { return tau * (1 + 1e-4) + 1e-5; };

  // Every unflagged answer may be the source of a later copy.
  // `whole` indexes entire answers, for telling the recall sample's
  // fresh retrievals from answer-tier copies of another text's answer.
  CopyIndex sources, whole;
  std::vector<std::size_t> query_ix;
  for (std::size_t i = 0; i < r.samples.size(); ++i) {
    const Sample& s = r.samples[i];
    if (s.op != kOpQuery || s.status != kStatusOk) continue;
    query_ix.push_back(i);
    if (s.flags & kRespCacheHit) continue;
    const auto parts = split(s);
    for (std::size_t g = 0; g < legs; ++g) {
      sources.Add(s.text, g, parts[g], s.send_ns, i);
    }
    whole.Add(s.text, 0, Part(r.docs.begin() + s.doc_off,
                              r.docs.begin() + s.doc_off + s.doc_n),
              s.send_ns, i);
  }

  std::uint64_t flagged_timed = 0, queries_timed = 0, ops_timed = 0,
                failed_timed = 0;
  std::vector<double> lat, wire, server, queue, process, hit_lat, unflag_lat,
      gold, write_lat, write_lag;
  std::vector<std::size_t> recall_candidates;
  std::set<std::uint32_t> candidate_texts;
  for (const Sample& s : r.samples) {
    if (!s.timed) continue;
    ++ops_timed;
    if (s.status != kStatusOk) {
      ++failed_timed;
      continue;
    }
    if (s.op != kOpQuery) {
      write_lat.push_back(s.latency_us());
      write_lag.push_back((s.send_ns - s.sched_ns) / 1e3);
    }
  }
  for (const std::size_t i : query_ix) {
    const Sample& s = r.samples[i];
    const float* q = queries.row(s.text);
    const bool flagged = (s.flags & kRespCacheHit) != 0;
    const bool coalesced = (s.flags & kRespCoalesced) != 0;
    std::vector<std::int64_t> docs(r.docs.begin() + s.doc_off,
                                   r.docs.begin() + s.doc_off + s.doc_n);
    std::set<std::int64_t> distinct(docs.begin(), docs.end());
    if (docs.size() != w.top_k || distinct.size() != docs.size()) {
      fail("query answered with " + std::to_string(docs.size()) +
           " ids, " + std::to_string(distinct.size()) + " distinct");
      continue;
    }
    const auto parts = split(s);
    const bool cross_copy = whole.IsCopy(q, s.text, 0, docs,
                                         within(w.tau_answer), s.recv_ns, i,
                                         queries, true);
    for (std::size_t g = 0; g < legs; ++g) {
      if (flagged) {
        if (!sources.IsCopy(q, s.text, g, parts[g], within(w.tau_doc),
                            s.recv_ns, i, queries, false)) {
          fail("flagged cache hit for '" + r.texts[s.text].substr(0, 40) +
               "...' matches no earlier answer within the document tier's "
               "tau");
        }
        continue;
      }
      const double tau =
          w.routed() || coalesced ? w.tau_doc : w.tau_answer;
      if (sources.IsCopy(q, s.text, g, parts[g], within(tau), s.recv_ns, i,
                         queries, false)) {
        continue;
      }
      const std::string e = CheckFreshPart(q, parts[g], store, 1e-3);
      if (!e.empty()) {
        fail("answer is neither a copy within tau nor a fresh retrieval: " +
             e);
      }
    }
    const std::string e = churn.CheckQuery(docs, s.send_ns, s.recv_ns);
    if (!e.empty()) fail(e);
    // Routed answers are exact merges only when they carry distances.
    const bool merged = !w.routed() || (s.flags & kRespHasDistances) != 0;
    if (!flagged && !coalesced && !cross_copy && merged &&
        candidate_texts.insert(s.text).second) {
      recall_candidates.push_back(i);
    }
    if (!s.timed) continue;
    ++queries_timed;
    if (flagged) ++flagged_timed;
    const double l = s.latency_us();
    lat.push_back(l);
    wire.push_back(l - s.server_ns / 1e3);
    server.push_back(s.server_ns / 1e3);
    queue.push_back(s.queue_ns / 1e3);
    process.push_back((static_cast<double>(s.server_ns) -
                       static_cast<double>(s.queue_ns)) / 1e3);
    (flagged ? hit_lat : unflag_lat).push_back(l);
    std::vector<std::int64_t> gold_ids;
    for (const auto g : corpus.questions[static_cast<std::size_t>(s.question)]
                            .gold_ids) {
      gold_ids.push_back(static_cast<std::int64_t>(g));
    }
    gold.push_back(GoldShare(docs, gold_ids));
  }

  // Recall of fresh retrievals against exact k-NN on a seeded sample.
  Rng pick(Mix(a.seed, 3));
  for (std::size_t i = recall_candidates.size(); i > 1; --i) {
    std::swap(recall_candidates[i - 1], recall_candidates[pick.Below(i)]);
  }
  recall_candidates.resize(std::min(recall_candidates.size(), kRecallSample));
  std::vector<double> recalls(recall_candidates.size(), 0.0);
  {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < 4; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t j = t; j < recall_candidates.size(); j += 4) {
          const Sample& s = r.samples[recall_candidates[j]];
          const auto live = churn.LiveAt(s.send_ns);
          const auto exact =
              ExactKnn(queries.row(s.text), store, live, w.top_k);
          std::vector<std::int64_t> docs(r.docs.begin() + s.doc_off,
                                         r.docs.begin() + s.doc_off + s.doc_n);
          recalls[j] = GoldShare(docs, exact);
        }
      });
    }
    for (auto& th : pool) th.join();
  }
  const double recall = Mean(recalls);
  if (recalls.size() < 4) {
    fail("only " + std::to_string(recalls.size()) +
         " fresh retrievals to sample for recall");
  } else if (recall < w.recall_bound) {
    fail("recall@10 of fresh retrievals " + JsonNumber(recall) +
         " is below " + JsonNumber(w.recall_bound));
  }

  // Client-side totals against /metrics deltas.
  const std::size_t nb = programs.backends;
  const std::size_t np = m_after.size();
  const std::size_t front = w.routed() ? nb : 0;
  std::vector<std::pair<std::string, std::pair<double, double>>> eq = {
      {"responses vs net.responses",
       {static_cast<double>(ops_timed),
        Delta(m_before, m_after, "net.responses", front, front + 1)}},
  };
  if (w.routed()) {
    eq.push_back({"queries vs cluster.queries",
                  {static_cast<double>(ops_timed),
                   Delta(m_before, m_after, "cluster.queries", front,
                         front + 1)}});
    for (std::size_t b = 0; b < nb; ++b) {
      const double hits = Delta(m_before, m_after, "serve.hits", b, b + 1);
      if (hits < static_cast<double>(flagged_timed)) {
        fail("backend " + std::to_string(b) + " counted " +
             JsonNumber(hits) + " cache hits for " +
             std::to_string(flagged_timed) + " flagged answers");
      }
    }
  } else {
    eq.push_back({"responses vs serve.submitted",
                  {static_cast<double>(ops_timed),
                   Delta(m_before, m_after, "serve.submitted", 0, 1)}});
    eq.push_back({"flagged hits vs serve.hits",
                  {static_cast<double>(flagged_timed),
                   Delta(m_before, m_after, "serve.hits", 0, 1)}});
  }
  for (const auto& e : CheckEqual(eq)) fail(e);
  if (queries_timed == 0) fail("no query completed in the timed phase");

  // ----------------------------------------------------------- metrics
  const double timed_s =
      std::max(1e-9, static_cast<double>(r.t_end_ns - r.t0_ns) / 1e9);
  // Per window: OK queries (throughput, latency tail) and OK operations
  // (CPU base).
  std::vector<double> window_queries(windows, 0.0), window_ops(windows, 0.0);
  std::vector<std::vector<double>> window_lat(windows);
  for (const Sample& s : r.samples) {
    if (!s.timed || s.status != kStatusOk) continue;
    const double at = static_cast<double>(s.recv_ns - r.t0_ns) / 1e9;
    const auto i = static_cast<std::size_t>(at / window_s);
    if (at < 0 || i >= windows) continue;
    window_ops[i] += 1;
    if (s.op == kOpQuery) {
      window_queries[i] += 1;
      window_lat[i].push_back(s.latency_us());
    }
  }
  std::vector<double> window_qps, window_cpu_per_op, window_p99;
  for (std::size_t i = 0; i < windows; ++i) {
    window_qps.push_back(window_queries[i] / window_s);
    if (!window_lat[i].empty()) {
      window_p99.push_back(Percentile(window_lat[i], 0.99));
    }
    if (window_ops[i] > 0) {
      window_cpu_per_op.push_back((window_cpu[i + 1] - window_cpu[i]) /
                                  window_ops[i]);
    }
  }
  double rss = 0;
  for (const double k : rss_kib) rss += k / 1024.0;
  auto d = [&](const std::string& name) {
    return Delta(m_before, m_after, name, 0, nb);
  };
  auto dall = [&](const std::string& name) {
    return Delta(m_before, m_after, name, 0, np);
  };
  auto drouter = [&](const std::string& name) {
    return w.routed() ? Delta(m_before, m_after, name, nb, nb + 1) : 0.0;
  };
  const double nq = static_cast<double>(queries_timed);
  // Cache key scans count as primary scan bytes too; take them out so
  // the vecmath figures speak of the index alone.
  const double dim = static_cast<double>(embedder.dim());
  double acache_keys = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    acache_keys += (Delta(m_before, m_after, "acache.lookups", b, b + 1) +
                    Delta(m_before, m_after, "acache.insertions", b, b + 1)) *
                   Get(m_after[b], "acache.occupancy");
  }
  const double cache_bytes = (d("cache.keys_scanned") + acache_keys) * dim * 4;
  const double primary = std::max(0.0, d("scan.primary_bytes") - cache_bytes);
  const double rerank = d("scan.rerank_bytes");
  const double index_queries = d("shard.batch_queries");

  const std::vector<std::pair<std::string, double>> e2e = {
      {"setup_s", programs.setup_s},
      {"qps", MidMean(window_qps)},
      {"latency_p50_us", Percentile(lat, 0.5)},
      {"latency_p99_us", MidMean(window_p99)},
      {"gold_recall", Mean(gold)},
      {"cpu_us_per_req", MidMean(window_cpu_per_op)},
      {"rss_mib", rss},
  };
  const std::vector<std::pair<std::string, double>> layer = {
      {"net.wire_us_p50", Percentile(wire, 0.5)},
      {"net.server_us_p50", Percentile(server, 0.5)},
      {"rag.queue_wait_us_p50", Percentile(queue, 0.5)},
      {"rag.process_us_p50", Percentile(process, 0.5)},
      {"rag.batch_size_mean", Ratio(d("serve.submitted"), d("serve.batches"))},
      {"path.hit_p50_us", Percentile(hit_lat, 0.5)},
      {"path.unflagged_p50_us", Percentile(unflag_lat, 0.5)},
      {"cache.hit_ratio", Ratio(d("cache.hits"), d("cache.lookups"))},
      {"acache.hit_ratio", Ratio(d("acache.hits"), d("acache.lookups"))},
      {"cache.keys_scanned_per_lookup",
       Ratio(d("cache.keys_scanned"), d("cache.lookups"))},
      {"cache.evictions_per_req", Ratio(d("cache.evictions"), nq)},
      {"cache.stale_hits_per_req", Ratio(d("cache.stale_hits"), nq)},
      {"acache.stale_hits_per_req", Ratio(d("acache.stale_hits"), nq)},
      {"router.regenerated_ratio",
       Ratio(d("router.regenerated"), d("router.routed"))},
      {"index.retrievals_per_req",
       Ratio(d("serve.retrieved"), d("serve.submitted"))},
      {"index.recall_vs_exact", recall},
      {"index.tombstones",
       static_cast<double>(deletes_acked) - d("index.reclaimed")},
      {"index.legs_per_query",
       Ratio(d("shard.searches"), d("shard.batch_queries"))},
      {"vecmath.primary_bytes_per_query", Ratio(primary, nq)},
      {"vecmath.rerank_bytes_per_query", Ratio(rerank, nq)},
      {"vecmath.index_bytes_per_search", Ratio(primary + rerank, index_queries)},
      {"cluster.leg_us_mean",
       Ratio(drouter("cluster.leg_ns_sum"), drouter("cluster.leg_ns_count")) /
           1e3},
      {"cluster.legs_per_query",
       Ratio(drouter("cluster.legs"), drouter("cluster.queries"))},
      {"cluster.hedges_per_req",
       Ratio(drouter("cluster.hedges"), drouter("cluster.queries"))},
      {"cluster.merge_fallback_ratio",
       Ratio(drouter("cluster.merge_fallbacks"), drouter("cluster.queries"))},
      {"obs.spans_per_req", Ratio(dall("trace.spans"), dall("net.requests"))},
      {"loadgen.write_lag_us_p99", Percentile(write_lag, 0.99)},
      {"write_p50_us", Percentile(write_lat, 0.5)},
  };
  const std::vector<std::pair<std::string, double>> counts = {
      {"timed_queries", nq},
      {"timed_writes", static_cast<double>(write_lat.size())},
      {"flagged_hits", static_cast<double>(flagged_timed)},
      {"recall_sample", static_cast<double>(recalls.size())},
      {"timed_seconds", timed_s},
  };

  std::string errs = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    errs += (i ? ", " : "") + JsonString(errors[i]);
  }
  errs += "]";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"errors\": %s, \"e2e\": %s, \"layer\": %s, \"counts\": %s}\n",
      errors.empty() ? "true" : "false",
      static_cast<unsigned long long>(ops_timed),
      static_cast<unsigned long long>(failed_timed), errs.c_str(),
      JsonObject(e2e).c_str(), JsonObject(layer).c_str(),
      JsonObject(counts).c_str());
  return 0;
}

}  // namespace
}  // namespace sb

int main(int argc, char** argv) {
  try {
    return sb::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sb_run: %s\n", e.what());
    return 2;
  }
}
