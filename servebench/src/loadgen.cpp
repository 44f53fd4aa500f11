// The load generator: closed-loop reader callers multiplexed over a few
// connections, plus an optional open-loop writer on a connection of its
// own. One thread drives all reader connections and one the writer, so
// the load generator itself needs at most two cores; the calling thread
// only coordinates the phases.
#include <errno.h>
#include <poll.h>
#include <time.h>

#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "sb.h"

namespace sb {

namespace {

struct Shared {
  std::mutex mu;
  std::condition_variable cv;
  int warm_arrived = 0;
  bool go = false;
  std::int64_t t0 = 0;
  std::int64_t deadline = 0;
};

struct Local {
  std::vector<Sample> samples;
  std::vector<std::int64_t> docs;
  std::vector<std::string> texts;
  bool transport_ok = true;
};

void Record(Local& L, Sample s, const WireResponse& r, std::int64_t now) {
  s.recv_ns = now;
  s.status = r.status;
  s.flags = r.flags;
  s.queue_ns = r.queue_ns;
  s.server_ns = r.server_ns;
  s.doc_off = static_cast<std::uint32_t>(L.docs.size());
  s.doc_n = static_cast<std::uint32_t>(r.docs.size());
  L.docs.insert(L.docs.end(), r.docs.begin(), r.docs.end());
  L.samples.push_back(s);
}

void WaitGo(Shared& sh) {
  std::unique_lock lock(sh.mu);
  sh.cv.wait(lock, [&] { return sh.go; });
}

// All reader connections, each carrying `callers_per_conn` closed-loop
// callers, driven from one thread with poll(): caller c sends on
// connection c / callers_per_conn.
void ReaderLoop(int port, const Traffic& tr, Shared& sh, Local& L) {
  const int n = tr.callers_per_conn;
  const int callers = tr.reader_conns * n;
  std::vector<Conn> conns(static_cast<std::size_t>(tr.reader_conns));
  std::vector<std::uint64_t> next_k(callers, 0);
  std::vector<Sample> pending(callers);
  std::vector<bool> busy(callers, false);
  std::uint64_t next_id = 1;
  bool timed = false;
  std::int64_t deadline = 0;

  auto send = [&](int caller) {
    OpSpec op = tr.next_read(caller, next_k[caller]++);
    Sample s;
    s.caller = static_cast<std::uint32_t>(caller);
    s.op = op.op;
    s.question = op.question;
    s.target = op.target;
    s.timed = timed;
    s.text = static_cast<std::uint32_t>(L.texts.size());
    L.texts.push_back(std::move(op.text));
    std::vector<std::uint8_t> frame;
    // The request id carries the caller's slot on its connection in its
    // low byte.
    const std::uint64_t id =
        (next_id++ << 8) | static_cast<std::uint64_t>(caller % n);
    EncodeRequest(frame, id, op.op, op.target, L.texts.back(),
                  tr.want_distances);
    s.send_ns = s.sched_ns = NowNs();
    pending[caller] = s;
    busy[caller] = true;
    if (!conns[caller / n].SendAll(frame)) L.transport_ok = false;
  };

  // Runs callers until each has done `quota` requests (warm) or until
  // the deadline passes (timed), then drains what is outstanding.
  auto run = [&](int quota) {
    std::vector<int> done(callers, 0);
    int outstanding = 0;
    for (int c = 0; quota != 0 && c < callers; ++c) {
      send(c);
      ++outstanding;
    }
    std::vector<pollfd> pfds(conns.size());
    while (outstanding > 0 && L.transport_ok) {
      for (std::size_t j = 0; j < conns.size(); ++j) {
        pfds[j] = pollfd{conns[j].fd(), POLLIN, 0};
      }
      if (::poll(pfds.data(), pfds.size(), -1) < 0) {
        if (errno == EINTR) continue;
        L.transport_ok = false;
        break;
      }
      for (std::size_t j = 0; j < conns.size() && L.transport_ok; ++j) {
        if (pfds[j].revents == 0) continue;
        // Every complete response buffered on this connection.
        for (;;) {
          WireResponse r;
          const int got = conns[j].Recv(&r, 0);
          if (got == 0) break;
          const int i = static_cast<int>(r.id & 0xff);
          const int c = static_cast<int>(j) * n + i;
          if (got < 0 || i >= n || !busy[c]) {
            L.transport_ok = false;
            break;
          }
          const std::int64_t now = NowNs();
          busy[c] = false;
          Record(L, pending[c], r, now);
          ++done[c];
          const bool more = quota > 0 ? done[c] < quota : now < deadline;
          if (more) {
            send(c);
          } else {
            --outstanding;
          }
        }
      }
    }
  };

  for (Conn& conn : conns) {
    if (!conn.Connect(port)) L.transport_ok = false;
  }
  if (L.transport_ok && tr.warm_per_caller > 0) run(tr.warm_per_caller);
  {
    std::lock_guard lock(sh.mu);
    ++sh.warm_arrived;
  }
  sh.cv.notify_all();
  WaitGo(sh);
  timed = true;
  deadline = sh.deadline;
  if (L.transport_ok) run(-1);
}

void SleepUntilOrReadable(int fd, std::int64_t until_ns) {
  const std::int64_t left = until_ns - NowNs();
  if (left <= 0) return;
  pollfd pfd{fd, POLLIN, 0};
  timespec ts{static_cast<time_t>(left / 1000000000),
              static_cast<long>(left % 1000000000)};
  ::ppoll(&pfd, 1, &ts, nullptr);
}

// The open-loop writer: op i is due at t0 + i * period; latency counts
// from that due time, so a late send cannot hide queueing.
void WriterLoop(int port, const Traffic& tr, Shared& sh, Local& L) {
  Conn conn;
  if (!conn.Connect(port)) L.transport_ok = false;
  WaitGo(sh);
  const std::int64_t t0 = sh.t0;
  const std::int64_t deadline = sh.deadline;
  std::unordered_map<std::uint64_t, Sample> pending;
  std::uint64_t i = 0;
  bool sending = true;
  while (L.transport_ok && (sending || !pending.empty())) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(i) *
                                      tr.write_period_ns;
    if (sending && due >= deadline) sending = false;
    if (sending && NowNs() >= due) {
      OpSpec op = tr.next_write(i);
      Sample s;
      s.caller = 0xffffffffu;
      s.op = op.op;
      s.target = op.target;
      s.timed = true;
      s.text = static_cast<std::uint32_t>(L.texts.size());
      L.texts.push_back(std::move(op.text));
      std::vector<std::uint8_t> frame;
      EncodeRequest(frame, i + 1, op.op, op.target, L.texts.back());
      s.sched_ns = due;
      s.send_ns = NowNs();
      pending.emplace(i + 1, s);
      if (!conn.SendAll(frame)) L.transport_ok = false;
      ++i;
      continue;
    }
    WireResponse r;
    const int got = conn.Recv(&r, 0);
    if (got < 0) {
      L.transport_ok = false;
      break;
    }
    if (got == 0) {
      if (sending) {
        SleepUntilOrReadable(conn.fd(), due);
      } else {
        SleepUntilOrReadable(conn.fd(), NowNs() + 1000000);
      }
      continue;
    }
    const auto it = pending.find(r.id);
    if (it == pending.end()) {
      L.transport_ok = false;
      break;
    }
    Record(L, it->second, r, NowNs());
    pending.erase(it);
  }
}

}  // namespace

LoadResult RunLoad(int port, const Traffic& tr, double seconds,
                   const PhaseHooks& hooks) {
  Shared sh;
  const bool writer = tr.write_period_ns > 0;
  std::vector<Local> locals(writer ? 2 : 1);
  std::vector<std::thread> threads;
  threads.emplace_back([&] { ReaderLoop(port, tr, sh, locals[0]); });
  if (writer) {
    threads.emplace_back(
        [&] { WriterLoop(port, tr, sh, locals.back()); });
  }
  {
    std::unique_lock lock(sh.mu);
    sh.cv.wait(lock, [&] { return sh.warm_arrived == 1; });
  }
  if (hooks.after_warm) hooks.after_warm();
  {
    std::lock_guard lock(sh.mu);
    sh.t0 = NowNs();
    sh.deadline = sh.t0 + static_cast<std::int64_t>(seconds * 1e9);
    sh.go = true;
  }
  sh.cv.notify_all();
  if (hooks.on_start) hooks.on_start(sh.t0);
  for (auto& t : threads) t.join();
  if (hooks.after_timed) hooks.after_timed();

  // Merge, de-duplicating texts so each is embedded once by the checks.
  LoadResult out;
  out.t0_ns = sh.t0;
  std::unordered_map<std::string, std::uint32_t> text_ids;
  for (Local& L : locals) {
    out.transport_ok = out.transport_ok && L.transport_ok;
    for (Sample s : L.samples) {
      std::string& text = L.texts[s.text];
      auto [it, fresh] = text_ids.emplace(
          text, static_cast<std::uint32_t>(out.texts.size()));
      if (fresh) out.texts.push_back(text);
      s.text = it->second;
      s.doc_off += static_cast<std::uint32_t>(out.docs.size());
      out.samples.push_back(s);
      if (s.timed) out.t_end_ns = std::max(out.t_end_ns, s.recv_ns);
    }
    out.docs.insert(out.docs.end(), L.docs.begin(), L.docs.end());
  }
  return out;
}

}  // namespace sb
