// The four workloads: which program processes they boot, with which
// settings, and the traffic the load generator sends them. Inputs come
// from the program's own generators (src/workload, src/embed) and depend
// only on the workload seed.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sb.h"
#include "workload/corpus.h"

namespace sb {

struct WorkloadDef {
  std::string name;
  // --- what each backend serves (`proximity_cli serve` settings) ---
  std::string dataset;  // mmlu | medrag
  std::size_t corpus_size = 0;
  std::string index;
  std::string storage = "float32";
  std::string staleness = "serve-stale";
  /// Backends, each serving stripe I of `partitions`; more than one
  /// puts `proximity_cli route` in front of them.
  std::size_t partitions = 1;
  /// `shards=` of each backend; 0 keeps the program's default (one
  /// shard per core).
  std::size_t shards = 0;
  // The program defaults this workload runs with: document tier c=200,
  // τ=2; answer tier 200 entries, τ=1 (half the document τ).
  double tau_doc = 2.0;
  double tau_answer = 1.0;
  std::size_t capacity = 200;
  std::size_t top_k = 10;
  /// Mean recall@10 that sampled fresh retrievals must reach against
  /// exact k-NN (the indexes are approximate; README "Checks").
  double recall_bound = 0.9;

  /// The corpus the servers build (the same generator call).
  std::shared_ptr<const proximity::Workload> corpus;
  Traffic traffic;

  bool routed() const { return partitions > 1; }
};

/// The command line of sb_run and sb_traced:
///   --workload NAME --seed N --seconds S --cli PATH --out DIR
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string cli;  // the proximity_cli binary
  std::string out;  // where the run writes its files
};

/// Parses RunArgs; throws std::invalid_argument naming `tool` on misuse.
RunArgs ParseRunArgs(int argc, char** argv, const std::string& tool);

/// Builds the named workload for `seed`; throws on an unknown name.
WorkloadDef MakeWorkload(const std::string& name, std::uint64_t seed);

/// `proximity_cli serve` arguments of backend `part` (the launcher adds
/// the listen/admin/port-file arguments).
std::vector<std::string> ServeArgs(const WorkloadDef& w, std::size_t part);

}  // namespace sb
