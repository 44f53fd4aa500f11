#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "embed/perturb.h"
#include "workload/benchmark_spec.h"
#include "workload/synth_text.h"

namespace sb {

namespace {

constexpr std::size_t kMmluCorpus = 10000;
constexpr std::size_t kMedragCorpus = 100000;
// Words of corpus vocabulary appended to every medrag_cold question: far
// enough apart that no two requests fall within either cache tier's τ,
// while the question's entity words still pull its gold passages up.
constexpr std::size_t kMedragNoiseWords = 8;
constexpr std::int64_t kWritePeriodNs = 50'000'000;  // DELETE, INSERT, ...
// mmlu_hot and mmlu_routed serve from one index shard per backend. With
// the default (one shard per core) every cache miss fans out over all
// cores at once, so the latency tail measured how many cores the host's
// other tenants left free: p99 rose ~50% with two busy neighbours,
// against ~3% with one shard (README "Workloads").
constexpr std::size_t kHotShards = 1;

void UseCorpus(WorkloadDef& w, const std::string& dataset,
               std::size_t size) {
  w.dataset = dataset;
  w.corpus_size = size;
  w.corpus = std::make_shared<const proximity::Workload>(
      proximity::BuildWorkload(dataset == "medrag"
                                   ? proximity::MedragLikeSpec(size)
                                   : proximity::MmluLikeSpec(size)));
}

// Zipf-popular question variants. Which questions are popular, and the
// text of each question's variants, are fixed; the seed draws the
// sequence, so runs with different seeds share one popularity profile.
// Caller c takes every C-th entry of the seeded stream.
void ZipfReads(WorkloadDef& w, std::uint64_t seed, int conns) {
  constexpr std::size_t kVariants = 4;
  constexpr std::size_t kLength = 8192;
  constexpr std::uint64_t kProfileSeed = 42;
  w.traffic.reader_conns = conns;
  w.traffic.callers_per_conn = 1;
  w.traffic.warm_per_caller = 500;
  const auto& questions = w.corpus->questions;
  const std::size_t n = questions.size();
  std::vector<std::size_t> by_rank(n);
  for (std::size_t i = 0; i < n; ++i) by_rank[i] = i;
  Rng profile(kProfileSeed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[profile.Below(i)]);
  }
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);  // Zipf, exponent 1
    cdf[r] = total;
  }
  struct Entry {
    std::int64_t question;
    std::string text;
  };
  auto stream = std::make_shared<std::vector<Entry>>();
  Rng rng(Mix(seed, 1));
  for (std::size_t i = 0; i < kLength; ++i) {
    const double u = static_cast<double>(rng.Next() >> 11) * 0x1p-53 * total;
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const std::size_t q = by_rank[std::min(rank, n - 1)];
    const std::size_t v = rng.Below(kVariants);
    stream->push_back(Entry{static_cast<std::int64_t>(q),
                            proximity::MakeVariant(questions[q].text, q, v,
                                                   kProfileSeed)});
  }
  const auto callers = static_cast<std::uint64_t>(conns);
  w.traffic.next_read = [stream, callers](int caller, std::uint64_t k) {
    const Entry& e = (*stream)[(k * callers + static_cast<std::uint64_t>(
                                                  caller)) %
                               stream->size()];
    OpSpec op;
    op.question = e.question;
    op.text = e.text;
    return op;
  };
}

// A new background passage: `words` words of the corpus's global
// vocabulary.
std::string RandomPassage(std::uint64_t seed, std::size_t words,
                          std::size_t vocab) {
  Rng rng(seed);
  std::string text;
  for (std::size_t i = 0; i < words; ++i) {
    if (!text.empty()) text += ' ';
    text += proximity::GlobalWord(rng.Below(vocab));
  }
  return text;
}

// The open-loop writer: DELETE a distractor, INSERT a new distractor
// text, alternating every kWritePeriodNs. Gold passages are never
// deleted, so every question's gold set stays valid.
void ChurnWrites(WorkloadDef& w, std::uint64_t seed) {
  auto deletable = std::make_shared<std::vector<std::int64_t>>();
  for (std::size_t id = 0; id < w.corpus->gold_for.size(); ++id) {
    if (w.corpus->gold_for[id] < 0) {
      deletable->push_back(static_cast<std::int64_t>(id));
    }
  }
  Rng rng(Mix(seed, 2));
  for (std::size_t i = deletable->size(); i > 1; --i) {
    std::swap((*deletable)[i - 1], (*deletable)[rng.Below(i)]);
  }
  const std::size_t vocab = w.corpus->spec.global_vocab;
  w.traffic.write_period_ns = kWritePeriodNs;
  w.traffic.next_write = [deletable, seed, vocab](std::uint64_t i) {
    OpSpec op;
    if (i % 2 == 0) {
      op.op = kOpDelete;
      op.target = static_cast<std::uint64_t>(
          (*deletable)[(i / 2) % deletable->size()]);
    } else {
      op.op = kOpInsert;
      op.text = RandomPassage(Mix(seed, 0x10000 + i), 45, vocab);
    }
    return op;
  };
}

// Each request: a MedRAG question plus request-unique corpus words.
void ColdReads(WorkloadDef& w, std::uint64_t seed) {
  w.traffic.reader_conns = 4;
  w.traffic.callers_per_conn = 8;
  w.traffic.warm_per_caller = 12;
  auto corpus = w.corpus;
  w.traffic.next_read = [corpus, seed](int caller, std::uint64_t k) {
    Rng rng(Mix(Mix(seed, static_cast<std::uint64_t>(caller)), k));
    OpSpec op;
    const std::size_t q = rng.Below(corpus->questions.size());
    op.question = static_cast<std::int64_t>(q);
    op.text = corpus->questions[q].text;
    for (std::size_t i = 0; i < kMedragNoiseWords; ++i) {
      op.text += ' ';
      op.text += proximity::GlobalWord(rng.Below(corpus->spec.global_vocab));
    }
    return op;
  };
}

}  // namespace

RunArgs ParseRunArgs(int argc, char** argv, const std::string& tool) {
  RunArgs a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--cli") a.cli = v;
    else if (k == "--out") a.out = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty() || a.cli.empty() || a.out.empty()) {
    throw std::invalid_argument("usage: " + tool +
                                " --workload NAME --seed N --seconds S "
                                "--cli PATH --out DIR");
  }
  return a;
}

WorkloadDef MakeWorkload(const std::string& name, std::uint64_t seed) {
  WorkloadDef w;
  w.name = name;
  if (name == "mmlu_hot") {
    UseCorpus(w, "mmlu", kMmluCorpus);
    w.index = "hnsw";
    w.shards = kHotShards;
    ZipfReads(w, seed, 4);
  } else if (name == "mmlu_routed") {
    UseCorpus(w, "mmlu", kMmluCorpus);
    w.index = "hnsw";
    w.shards = kHotShards;
    w.partitions = 2;
    ZipfReads(w, seed, 4);
    w.traffic.want_distances = true;
  } else if (name == "mmlu_churn") {
    UseCorpus(w, "mmlu", kMmluCorpus);
    w.index = "mutable";
    w.staleness = "revalidate";
    w.recall_bound = 0.8;
    ZipfReads(w, seed, 3);
    ChurnWrites(w, seed);
  } else if (name == "medrag_cold") {
    UseCorpus(w, "medrag", kMedragCorpus);
    w.index = "flat";
    w.storage = "sq8";
    w.recall_bound = 0.95;
    ColdReads(w, seed);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<std::string> ServeArgs(const WorkloadDef& w, std::size_t part) {
  std::vector<std::string> args = {
      "serve",
      "workload=" + w.dataset,
      "corpus=" + std::to_string(w.corpus_size),
      "index=" + w.index,
      "storage=" + w.storage,
      "staleness=" + w.staleness,
      "answer_cache=" + std::to_string(w.capacity),
      "quiet=true",
  };
  if (w.shards != 0) args.push_back("shards=" + std::to_string(w.shards));
  if (w.routed()) {
    args.push_back("partition=" + std::to_string(part) + "/" +
                   std::to_string(w.partitions));
  }
  return args;
}

}  // namespace sb
