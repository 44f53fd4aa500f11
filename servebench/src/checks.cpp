// Output checkers. Each one recomputes what it compares against from the
// benchmark's own vectors, in double precision; none reads the program's
// distances or its index.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "sb.h"

namespace sb {

double L2(const float* a, const float* b, std::size_t dim) {
  double s = 0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    s += d * d;
  }
  return s;
}

std::vector<std::int64_t> ExactKnn(const float* q, const VectorStore& corpus,
                                   const std::vector<std::int64_t>& live,
                                   std::size_t k) {
  std::vector<std::pair<double, std::int64_t>> all;
  all.reserve(live.size());
  for (const std::int64_t id : live) {
    all.emplace_back(L2(q, corpus.row(static_cast<std::size_t>(id)),
                        corpus.dim),
                     id);
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(k),
                    all.end());
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < k; ++i) out.push_back(all[i].second);
  return out;
}

void CopyIndex::Add(std::uint32_t text, std::size_t leg, const Part& part,
                    std::int64_t send_ns, std::size_t sample) {
  auto& list = by_head_[{leg, part.empty() ? kNone : part.front()}];
  for (Entry& e : list) {
    if (e.text == text && e.part == part) {
      if (send_ns < e.send_ns) {
        e.send_ns = send_ns;
        e.sample = sample;
      }
      return;
    }
  }
  list.push_back(Entry{text, part, send_ns, sample});
}

bool CopyIndex::IsCopy(const float* q, std::uint32_t text, std::size_t leg,
                       const Part& part, double tau, std::int64_t before_ns,
                       std::size_t self, const VectorStore& queries,
                       bool other_text_only) const {
  if (part.empty()) return true;
  // Candidates: earlier answers that start with the same id, and those
  // that showed nothing of this leg (a routed merge may drop a leg).
  std::vector<const Entry*> candidates;
  for (const std::int64_t head : {part.front(), kNone}) {
    const auto it = by_head_.find({leg, head});
    if (it == by_head_.end()) continue;
    for (const Entry& e : it->second) candidates.push_back(&e);
  }
  for (const Entry* ep : candidates) {
    const Entry& e = *ep;
    if (e.send_ns >= before_ns || e.sample == self) continue;
    if (other_text_only && e.text == text) continue;
    const std::size_t common = std::min(e.part.size(), part.size());
    if (!std::equal(part.begin(), part.begin() + static_cast<long>(common),
                    e.part.begin())) {
      continue;
    }
    if (L2(q, queries.row(e.text), queries.dim) <= tau) return true;
  }
  return false;
}

std::string CheckFreshPart(const float* q, const Part& part,
                           const VectorStore& corpus, double slack) {
  std::set<std::int64_t> seen;
  double prev = -1.0;
  const std::size_t rows = corpus.data.size() / std::max<std::size_t>(1,
                                                                corpus.dim);
  for (const std::int64_t id : part) {
    if (id < 0 || static_cast<std::size_t>(id) >= rows) {
      return "id " + std::to_string(id) + " is not a corpus row";
    }
    if (!seen.insert(id).second) {
      return "id " + std::to_string(id) + " returned twice";
    }
    const double d = L2(q, corpus.row(static_cast<std::size_t>(id)),
                        corpus.dim);
    if (d + slack * std::max(1.0, d) < prev) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "id %lld at distance %.6f follows distance %.6f",
                    static_cast<long long>(id), d, prev);
      return buf;
    }
    prev = std::max(prev, d);
  }
  return "";
}

double GoldShare(const std::vector<std::int64_t>& docs,
                 const std::vector<std::int64_t>& gold) {
  if (gold.empty()) return 0.0;
  std::size_t found = 0;
  for (const std::int64_t g : gold) {
    if (std::find(docs.begin(), docs.end(), g) != docs.end()) ++found;
  }
  return static_cast<double>(found) / static_cast<double>(gold.size());
}

std::vector<std::string> CheckEqual(
    const std::vector<std::pair<std::string, std::pair<double, double>>>&
        pairs) {
  std::vector<std::string> bad;
  for (const auto& [what, v] : pairs) {
    if (v.first != v.second) {
      char buf[200];
      std::snprintf(buf, sizeof(buf), "%s: %.0f != %.0f", what.c_str(),
                    v.first, v.second);
      bad.push_back(buf);
    }
  }
  return bad;
}

ChurnChecker::ChurnChecker(std::int64_t corpus_size)
    : corpus_size_(corpus_size) {}

std::string ChurnChecker::OnInsertAck(std::int64_t id, std::int64_t send_ns,
                                      std::int64_t ack_ns) {
  const bool initially = id >= 0 && id < corpus_size_;
  const auto del = deleted_at_.find(id);
  const auto ins = inserted_at_.find(id);
  // Live now: an initial row or an inserted one, unless deleted since.
  bool live = initially || ins != inserted_at_.end();
  if (del != deleted_at_.end() &&
      (ins == inserted_at_.end() || del->second > ins->second)) {
    live = false;
  }
  if (id < 0 || live) {
    return "INSERT returned id " + std::to_string(id) + ", which is live";
  }
  inserted_at_[id] = ack_ns;
  insert_sent_[id] = send_ns;
  return "";
}

std::string ChurnChecker::OnDeleteAck(std::int64_t id, std::int64_t ack_ns) {
  deleted_at_[id] = ack_ns;
  return "";
}

std::string ChurnChecker::CheckQuery(const std::vector<std::int64_t>& docs,
                                     std::int64_t send_ns,
                                     std::int64_t recv_ns) const {
  for (const std::int64_t id : docs) {
    const auto del = deleted_at_.find(id);
    if (del == deleted_at_.end() || del->second >= send_ns) continue;
    // A later INSERT may legally reuse the slot of a deleted id.
    const auto sent = insert_sent_.find(id);
    if (sent != insert_sent_.end() && sent->second > del->second &&
        sent->second < recv_ns) {
      continue;
    }
    return "id " + std::to_string(id) +
           " returned by a query sent after its DELETE was acknowledged";
  }
  return "";
}

std::vector<std::int64_t> ChurnChecker::LiveAt(std::int64_t t_ns) const {
  std::vector<std::int64_t> live;
  auto alive = [&](std::int64_t id) {
    const auto del = deleted_at_.find(id);
    const auto ins = inserted_at_.find(id);
    const bool has = id < corpus_size_ ||
                     (ins != inserted_at_.end() && ins->second <= t_ns);
    if (!has) return false;
    if (del == deleted_at_.end() || del->second > t_ns) return true;
    return ins != inserted_at_.end() && ins->second <= t_ns &&
           ins->second > del->second;
  };
  for (std::int64_t id = 0; id < corpus_size_; ++id) {
    if (alive(id)) live.push_back(id);
  }
  for (const auto& [id, at] : inserted_at_) {
    if (id >= corpus_size_ && alive(id)) live.push_back(id);
  }
  return live;
}

}  // namespace sb
