// Shared pieces of the serving benchmark: the wire codec, the load
// generator, the output checkers and the statistics they report.
//
// The benchmark talks to the program only through interfaces that are
// meant to outlive refactors: the `proximity_cli` command line, the
// framed wire protocol (re-implemented here, not linked), the `/metrics`
// names documented in docs/METRICS.md, and the input generators of
// src/workload and src/embed. Everything a check compares against is
// computed here, in double precision, from HashEmbedder vectors.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace sb {

// ---------------------------------------------------------------- clock

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ----------------------------------------------------------------- rng

/// splitmix64: the benchmark's own generator, so its inputs depend on
/// `--seed` and on nothing the program might change.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
};

std::uint64_t Mix(std::uint64_t a, std::uint64_t b);

// ---------------------------------------------------------------- stats

/// Percentile of `v` (q in [0, 1]) by linear interpolation between the
/// closest ranks, as numpy's default. `v` need not be sorted. Empty -> 0.
double Percentile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);
/// Interquartile mean: the mean of the middle half of `v` (all of it
/// when it has fewer than four values). Empty -> 0.
double MidMean(std::vector<double> v);

// ----------------------------------------------------------------- wire

inline constexpr std::uint32_t kReqMagic = 0x51585250;   // "PRXQ"
inline constexpr std::uint32_t kRespMagic = 0x52585250;  // "PRXR"
inline constexpr std::uint32_t kReqHasMutation = 1u << 2;
inline constexpr std::uint32_t kReqWantDistances = 1u << 3;
inline constexpr std::uint32_t kRespCacheHit = 1u << 0;
inline constexpr std::uint32_t kRespCoalesced = 1u << 1;
inline constexpr std::uint32_t kRespHasDistances = 1u << 2;
inline constexpr std::uint32_t kOpQuery = 0;
inline constexpr std::uint32_t kOpInsert = 1;
inline constexpr std::uint32_t kOpDelete = 2;
inline constexpr std::uint32_t kStatusOk = 0;

struct WireResponse {
  std::uint64_t id = 0;
  std::uint32_t status = 0;
  std::uint32_t flags = 0;
  std::uint64_t queue_ns = 0;
  std::uint64_t server_ns = 0;
  std::vector<std::int64_t> docs;
};

/// Appends one framed request (length prefix included).
void EncodeRequest(std::vector<std::uint8_t>& out, std::uint64_t id,
                   std::uint32_t op, std::uint64_t target,
                   const std::string& text, bool want_distances = false);

/// Decodes the first frame of [p, p+n): returns the bytes consumed, 0
/// when the frame is incomplete, -1 when the stream is corrupt.
long DecodeResponse(const std::uint8_t* p, std::size_t n, WireResponse* out);

/// One blocking loopback TCP connection.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(int port);
  bool SendAll(const std::vector<std::uint8_t>& bytes);
  /// Waits up to timeout_ms (-1 = forever) for one response.
  /// Returns 1 on a response, 0 on timeout, -1 on error.
  int Recv(WireResponse* out, int timeout_ms);
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;
};

/// GET http://127.0.0.1:port/path; returns the body ("" on failure).
std::string HttpGet(int port, const std::string& path);

/// Parses Prometheus text exposition into name -> value, with the
/// `proximity_` prefix stripped. Summary quantile lines are skipped;
/// `_sum`/`_count` lines are kept under their suffixed names.
std::map<std::string, double> ParseMetrics(const std::string& body);

// ------------------------------------------------------------ workloads

/// What one caller sends next. `question` indexes the workload's
/// questions (-1 for writes); `text` is the request text.
struct OpSpec {
  std::uint32_t op = kOpQuery;
  std::int64_t question = -1;
  std::uint64_t target = 0;
  std::string text;
};

/// The traffic of one run: reader callers spread over connections, and
/// optionally one open-loop writer on a connection of its own.
struct Traffic {
  int reader_conns = 4;
  int callers_per_conn = 1;
  int warm_per_caller = 0;
  /// Ask for the v5 distance array on queries (set for the router, whose
  /// answers carry it only when every leg was merged exactly).
  bool want_distances = false;
  /// Next reader op of caller c (global caller index), k-th request.
  std::function<OpSpec(int caller, std::uint64_t k)> next_read;
  /// Writer: period between writes (0 = no writer) and op i.
  std::int64_t write_period_ns = 0;
  std::function<OpSpec(std::uint64_t i)> next_write;
};

/// One request as the client saw it.
struct Sample {
  std::uint32_t caller = 0;
  std::uint32_t op = kOpQuery;
  bool timed = false;
  std::int64_t question = -1;
  std::uint64_t target = 0;
  std::uint32_t text = 0;  // index into LoadResult::texts
  std::int64_t sched_ns = 0;  // writer: when it was due; else = send
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;
  std::uint64_t queue_ns = 0;
  std::uint64_t server_ns = 0;
  std::uint32_t status = 0;
  std::uint32_t flags = 0;
  std::uint32_t doc_off = 0;
  std::uint32_t doc_n = 0;

  double latency_us() const { return (recv_ns - sched_ns) / 1e3; }
};

struct LoadResult {
  std::vector<Sample> samples;
  std::vector<std::int64_t> docs;
  std::vector<std::string> texts;
  std::int64_t t0_ns = 0;      // timed phase start
  std::int64_t t_end_ns = 0;   // last timed completion
  bool transport_ok = true;
};

/// Hooks the coordinator runs between phases (metrics snapshots).
struct PhaseHooks {
  std::function<void()> after_warm;
  /// Runs once the timed phase has begun at `t0_ns`.
  std::function<void(std::int64_t t0_ns)> on_start;
  std::function<void()> after_timed;
};

/// Runs warm phase, then the timed phase of `seconds`, against `port`.
LoadResult RunLoad(int port, const Traffic& traffic, double seconds,
                   const PhaseHooks& hooks);

// ------------------------------------------------------------- checking

/// Embeddings of every text a run sent or a program might return, in
/// the benchmark's own store (floats from HashEmbedder; all arithmetic
/// on them is done in double).
struct VectorStore {
  std::size_t dim = 0;
  std::vector<float> data;
  const float* row(std::size_t i) const { return data.data() + i * dim; }
};

/// Squared L2 in double precision.
double L2(const float* a, const float* b, std::size_t dim);

/// Exact k nearest ids of `q` over `live` ids of `corpus` (ties broken
/// by id), by brute force in double precision.
std::vector<std::int64_t> ExactKnn(const float* q, const VectorStore& corpus,
                                   const std::vector<std::int64_t>& live,
                                   std::size_t k);

/// The document ids the program returned, split into per-backend parts
/// (one part for a single process; by partition stripe when routed).
using Part = std::vector<std::int64_t>;

/// Records earlier answers so later ones can be recognised as copies.
class CopyIndex {
 public:
  /// Records answer `sample` (to `text`, sent at `send_ns`) on `leg`.
  void Add(std::uint32_t text, std::size_t leg, const Part& part,
           std::int64_t send_ns, std::size_t sample);
  /// True if `part` is empty, or if another answer, sent before
  /// `before_ns` for a text within `tau` of `q`, agrees with `part` on
  /// their common prefix. `self` is the answer under test;
  /// `other_text_only` also skips answers to the same text.
  bool IsCopy(const float* q, std::uint32_t text, std::size_t leg,
              const Part& part, double tau, std::int64_t before_ns,
              std::size_t self, const VectorStore& queries,
              bool other_text_only) const;

 private:
  struct Entry {
    std::uint32_t text;
    Part part;
    std::int64_t send_ns;
    std::size_t sample;  // the earliest-sent answer with this text/part
  };
  static constexpr std::int64_t kNone = -1;
  // (leg, first doc or kNone) -> distinct earlier answers.
  std::map<std::pair<std::size_t, std::int64_t>, std::vector<Entry>> by_head_;
};

/// A fresh retrieval must list distinct ids in non-decreasing distance
/// from the query (with `slack` relative tolerance for the program's
/// float arithmetic). Returns an empty string when it does.
std::string CheckFreshPart(const float* q, const Part& part,
                           const VectorStore& corpus, double slack);

/// Share of `gold` ids among `docs`.
double GoldShare(const std::vector<std::int64_t>& docs,
                 const std::vector<std::int64_t>& gold);

/// Checks that client-side totals match /metrics deltas; returns the
/// failed comparisons (empty = all match).
std::vector<std::string> CheckEqual(
    const std::vector<std::pair<std::string, std::pair<double, double>>>&
        pairs);

/// Live-corpus check: deletes acknowledged before a query was sent must
/// not come back in its answer, and inserts must return ids not live.
class ChurnChecker {
 public:
  explicit ChurnChecker(std::int64_t corpus_size);
  /// Feeds one acknowledged write; returns "" or the violation.
  std::string OnInsertAck(std::int64_t id, std::int64_t send_ns,
                          std::int64_t ack_ns);
  std::string OnDeleteAck(std::int64_t id, std::int64_t ack_ns);
  /// Checks one query answer against the writes; "" or the violation.
  std::string CheckQuery(const std::vector<std::int64_t>& docs,
                         std::int64_t send_ns, std::int64_t recv_ns) const;
  /// Ids live at `t_ns` (acknowledged deletes removed, inserts added).
  std::vector<std::int64_t> LiveAt(std::int64_t t_ns) const;

 private:
  std::int64_t corpus_size_;
  std::map<std::int64_t, std::int64_t> deleted_at_;   // id -> delete ack
  std::map<std::int64_t, std::int64_t> inserted_at_;  // id -> insert ack
  std::map<std::int64_t, std::int64_t> insert_sent_;  // id -> insert send
};

// ------------------------------------------------------------ processes

/// Starts `exe args...` with stdout/stderr appended to `log`; the child
/// is killed if this process dies. Returns the pid (-1 on failure).
int Spawn(const std::string& exe, const std::vector<std::string>& args,
          const std::string& log);
/// The port a program wrote to `path`, or -1 while it is incomplete.
int ReadPortFile(const std::string& path);
/// Waits for every port file; false if a pid exits or time runs out.
bool WaitPortFiles(const std::vector<std::string>& paths,
                   const std::vector<int>& pids, double timeout_s,
                   std::vector<int>* ports);
/// Starts `cli route` over backends listening on `ports` (with their
/// admin ports, if given), writing its files under `stem`; appends its
/// pid to `pids` and returns its RPC and admin ports.
bool StartRouter(const std::string& cli, const std::vector<int>& ports,
                 const std::vector<int>& admins, const std::string& stem,
                 std::vector<int>* pids, int* port, int* admin);
/// SIGTERM (graceful drain), then SIGKILL after `grace_s`; reaps.
void StopProcess(int pid, double grace_s);
/// User + system CPU of `pid` so far, in microseconds.
double CpuMicros(int pid);
/// Peak resident set (VmHWM) of `pid`, in KiB.
double PeakRssKib(int pid);

}  // namespace sb
