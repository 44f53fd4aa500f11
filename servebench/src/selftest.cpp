// sb_selftest: the benchmark's checkers fed fabricated violations (each
// must fail) and valid cases (each must pass), plus hand-computed cases
// for the exact k-NN, the percentile code, the wire codec and the
// /metrics parser. Run by `python3 servebench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <cstring>

#include "sb.h"

namespace sb {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%-64s %s\n", what, ok ? "ok" : "FAILED");
  if (!ok) ++failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

// Rows of a 2-d store: ids 0..4 at x = 0, 1, 2, 3, 10 on the x axis.
VectorStore Line() {
  VectorStore s;
  s.dim = 2;
  for (const float x : {0.f, 1.f, 2.f, 3.f, 10.f}) {
    s.data.push_back(x);
    s.data.push_back(0.f);
  }
  return s;
}

void Statistics() {
  Expect(Near(Percentile({1, 2, 3, 4}, 0.5), 2.5), "percentile p50 of 1..4 = 2.5");
  Expect(Near(Percentile({4, 1, 3, 2}, 0.99), 3.97),
         "percentile p99 of 1..4 = 3.97 (unsorted input)");
  Expect(Near(Percentile({1, 2, 3, 4}, 0.0), 1.0), "percentile p0 = minimum");
  Expect(Near(Percentile({1, 2, 3, 4}, 1.0), 4.0), "percentile p100 = maximum");
  Expect(Near(Percentile({7}, 0.99), 7.0), "percentile of one sample");
  Expect(Near(Percentile({}, 0.5), 0.0), "percentile of no samples = 0");
  Expect(Near(Mean({1, 2, 6}), 3.0), "mean of 1, 2, 6 = 3");
  Expect(Near(MidMean({100, 1, 3, 2, 4, -50, 5, 6}), 3.5),
         "interquartile mean of 8 values drops the outer two each side");
  Expect(Near(MidMean({1, 2, 9}), 4.0), "interquartile mean of 3 = mean");
}

void Knn() {
  const VectorStore s = Line();
  const float q[2] = {2.4f, 0.f};
  const auto top = ExactKnn(q, s, {0, 1, 2, 3, 4}, 3);
  Expect(top == std::vector<std::int64_t>({2, 3, 1}),
         "exact 3-NN of x=2.4 over {0,1,2,3,10} = ids 2, 3, 1");
  const auto live = ExactKnn(q, s, {0, 1, 4}, 2);
  Expect(live == std::vector<std::int64_t>({1, 0}),
         "exact 2-NN restricted to live ids {0,1,4} = ids 1, 0");
  Expect(Near(L2(s.row(1), s.row(3), 2), 4.0), "squared L2 of x=1, x=3 = 4");
  Expect(Near(GoldShare({5, 2, 9}, {2, 9, 7, 8}), 0.5),
         "gold share of {5,2,9} in gold {2,9,7,8} = 0.5");
}

void Fresh() {
  const VectorStore s = Line();
  const float q[2] = {0.f, 0.f};
  Expect(CheckFreshPart(q, {0, 1, 2, 3}, s, 1e-3).empty(),
         "fresh: ids in distance order pass");
  Expect(!CheckFreshPart(q, {0, 2, 1}, s, 1e-3).empty(),
         "fresh: out-of-order ids fail");
  Expect(!CheckFreshPart(q, {0, 1, 1}, s, 1e-3).empty(),
         "fresh: a repeated id fails");
  Expect(!CheckFreshPart(q, {0, 7}, s, 1e-3).empty(),
         "fresh: an id outside the corpus fails");
}

void Copies() {
  // Query texts 0..2 at x = 0, 1, 3 (squared distances 1 and 9 from 0).
  VectorStore queries;
  queries.dim = 2;
  for (const float x : {0.f, 1.f, 3.f}) {
    queries.data.push_back(x);
    queries.data.push_back(0.f);
  }
  CopyIndex idx;
  idx.Add(/*text=*/1, /*leg=*/0, {4, 5, 6}, /*send_ns=*/100, /*sample=*/0);
  idx.Add(2, 0, {7, 8, 9}, 100, 1);
  idx.Add(0, 1, {}, 100, 2);  // a routed answer that showed leg 1 nothing
  const float* q0 = queries.row(0);
  Expect(idx.IsCopy(q0, 0, 0, {4, 5, 6}, 2.0, 1000, 9, queries, false),
         "copy: same ids from a text within tau pass");
  Expect(!idx.IsCopy(q0, 0, 0, {7, 8, 9}, 2.0, 1000, 9, queries, false),
         "copy: same ids from a text beyond tau fail");
  Expect(!idx.IsCopy(q0, 0, 0, {4, 5, 7}, 2.0, 1000, 9, queries, false),
         "copy: ids that differ from every earlier answer fail");
  Expect(!idx.IsCopy(q0, 0, 0, {4, 5, 6}, 2.0, 50, 9, queries, false),
         "copy: an answer sent later is no source");
  Expect(!idx.IsCopy(queries.row(1), 1, 0, {4, 5, 6}, 2.0, 1000, 0, queries,
                     false),
         "copy: an answer is no copy of itself");
  Expect(!idx.IsCopy(queries.row(1), 1, 0, {4, 5, 6}, 2.0, 1000, 9, queries,
                     true),
         "copy: same-text sources skipped when asked");
  Expect(idx.IsCopy(q0, 0, 0, {4, 5}, 2.0, 1000, 9, queries, false),
         "copy: a prefix of an earlier leg answer passes");
  Expect(idx.IsCopy(q0, 0, 1, {3, 2}, 2.0, 1000, 9, queries, false),
         "copy: a leg an earlier merge dropped matches anything");
}

void Churn() {
  ChurnChecker c(/*corpus_size=*/10);
  Expect(c.OnDeleteAck(3, 100).empty(), "churn: delete acknowledged");
  Expect(!c.CheckQuery({1, 3}, /*send=*/150, /*recv=*/200).empty(),
         "churn: a deleted id in a later query fails");
  Expect(c.CheckQuery({1, 3}, 50, 200).empty(),
         "churn: a deleted id in a query sent before the ack passes");
  Expect(!c.OnInsertAck(5, 300, 310).empty(),
         "churn: INSERT returning a live corpus id fails");
  Expect(c.OnInsertAck(10, 300, 310).empty(),
         "churn: INSERT returning a new id passes");
  Expect(!c.OnInsertAck(10, 400, 410).empty(),
         "churn: INSERT returning an id inserted before fails");
  Expect(c.OnInsertAck(3, 500, 510).empty(),
         "churn: INSERT reusing a deleted id passes");
  Expect(c.CheckQuery({3}, 600, 700).empty(),
         "churn: a reused id returned after its INSERT passes");
  const auto live = c.LiveAt(320);
  Expect(live.size() == 10 && live.back() == 10,
         "churn: live set = corpus - deleted + inserted");
}

void Totals() {
  Expect(CheckEqual({{"a", {3, 3}}, {"b", {4, 4}}}).empty(),
         "totals: matching counts pass");
  Expect(CheckEqual({{"a", {3, 3}}, {"b", {4, 5}}}).size() == 1,
         "totals: a count off by one fails");
}

void Codec() {
  std::vector<std::uint8_t> req;
  EncodeRequest(req, 7, kOpDelete, 42, "");
  // len, magic, id, flags, deadline, op, target, text_len
  Expect(req.size() == 4 + 4 + 8 + 4 + 8 + 4 + 8 + 4,
         "codec: DELETE frame carries the v4 mutation field");
  std::uint32_t flags = 0;
  std::memcpy(&flags, req.data() + 16, 4);
  Expect(flags == kReqHasMutation, "codec: DELETE sets the mutation flag");

  // A response frame built by hand: id 9, status 0, cache-hit flag,
  // queue 5 ns, server 11 ns, two documents.
  std::vector<std::uint8_t> resp;
  auto put = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    resp.insert(resp.end(), b, b + n);
  };
  const std::uint32_t len = 4 + 8 + 4 + 4 + 8 + 8 + 4 + 16;
  const std::uint32_t magic = kRespMagic, status = 0, rflags = kRespCacheHit,
                      ndocs = 2;
  const std::uint64_t id = 9, queue = 5, server = 11;
  const std::int64_t d0 = 3, d1 = 77;
  put(&len, 4);
  put(&magic, 4);
  put(&id, 8);
  put(&status, 4);
  put(&rflags, 4);
  put(&queue, 8);
  put(&server, 8);
  put(&ndocs, 4);
  put(&d0, 8);
  put(&d1, 8);
  WireResponse r;
  Expect(DecodeResponse(resp.data(), resp.size() - 1, &r) == 0,
         "codec: a partial frame asks for more bytes");
  Expect(DecodeResponse(resp.data(), resp.size(), &r) ==
                 static_cast<long>(resp.size()) &&
             r.id == 9 && r.flags == kRespCacheHit && r.queue_ns == 5 &&
             r.server_ns == 11 && r.docs == std::vector<std::int64_t>({3, 77}),
         "codec: a hand-built response decodes field by field");
  resp[4] ^= 0xff;
  Expect(DecodeResponse(resp.data(), resp.size(), &r) < 0,
         "codec: a bad magic is a corrupt stream");
}

void Prometheus() {
  const auto m = ParseMetrics(
      "# TYPE proximity_serve_hits counter\n"
      "proximity_serve_hits 12\n"
      "proximity_net_request_ns{quantile=\"0.5\"} 400\n"
      "proximity_net_request_ns_sum 1.5e+06\n"
      "proximity_net_request_ns_count 3000\n");
  Expect(m.size() == 3 && Near(m.at("serve_hits"), 12) &&
             Near(m.at("net_request_ns_sum"), 1.5e6) &&
             Near(m.at("net_request_ns_count"), 3000),
         "metrics: counters and summary sums parse, quantiles skipped");
}

}  // namespace
}  // namespace sb

int main() {
  sb::Statistics();
  sb::Knn();
  sb::Fresh();
  sb::Copies();
  sb::Churn();
  sb::Totals();
  sb::Codec();
  sb::Prometheus();
  std::printf("sb_selftest: %d failure(s)\n", sb::failures);
  return sb::failures == 0 ? 0 : 1;
}
