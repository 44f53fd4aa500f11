// Wire codec, loopback connections, /metrics scraping and statistics.
//
// The codec follows the frame layout documented in src/net/protocol.h
// (request v4 with the optional mutation field, response v5). It is
// written out here rather than linked so the benchmark keeps measuring
// the same bytes on the wire whatever the program's own codec becomes.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>

#include "sb.h"

namespace sb {

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  Rng r(a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL));
  r.Next();
  return r.Next();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(v.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double MidMean(std::vector<double> v) {
  if (v.size() < 4) return Mean(v);
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  return Mean(std::vector<double>(v.begin() + static_cast<long>(cut),
                                  v.end() - static_cast<long>(cut)));
}

namespace {

template <typename T>
void Put(std::vector<std::uint8_t>& out, T v) {
  std::uint8_t b[sizeof(T)];
  std::memcpy(b, &v, sizeof(T));  // the protocol is little-endian
  out.insert(out.end(), b, b + sizeof(T));
}

template <typename T>
T Get(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

constexpr std::size_t kMaxFrame = 1u << 20;

}  // namespace

void EncodeRequest(std::vector<std::uint8_t>& out, std::uint64_t id,
                   std::uint32_t op, std::uint64_t target,
                   const std::string& text, bool want_distances) {
  const std::size_t len_at = out.size();
  Put<std::uint32_t>(out, 0);
  Put<std::uint32_t>(out, kReqMagic);
  Put<std::uint64_t>(out, id);
  Put<std::uint32_t>(out, (op != kOpQuery ? kReqHasMutation : 0u) |
                              (want_distances ? kReqWantDistances : 0u));
  Put<std::uint64_t>(out, 0);  // no deadline
  if (op != kOpQuery) {
    Put<std::uint32_t>(out, op);
    Put<std::uint64_t>(out, target);
  }
  Put<std::uint32_t>(out, static_cast<std::uint32_t>(text.size()));
  out.insert(out.end(), text.begin(), text.end());
  const auto len = static_cast<std::uint32_t>(out.size() - len_at - 4);
  std::memcpy(out.data() + len_at, &len, 4);
}

long DecodeResponse(const std::uint8_t* p, std::size_t n, WireResponse* out) {
  if (n < 4) return 0;
  const auto len = Get<std::uint32_t>(p);
  if (len > kMaxFrame) return -1;
  if (n < 4 + static_cast<std::size_t>(len)) return 0;
  const std::uint8_t* q = p + 4;
  constexpr std::size_t kFixed = 4 + 8 + 4 + 4 + 8 + 8 + 4;
  if (len < kFixed || Get<std::uint32_t>(q) != kRespMagic) return -1;
  out->id = Get<std::uint64_t>(q + 4);
  out->status = Get<std::uint32_t>(q + 12);
  out->flags = Get<std::uint32_t>(q + 16);
  out->queue_ns = Get<std::uint64_t>(q + 20);
  out->server_ns = Get<std::uint64_t>(q + 28);
  const auto ndocs = Get<std::uint32_t>(q + 36);
  const bool dists = (out->flags & kRespHasDistances) != 0;
  const std::size_t need =
      kFixed + static_cast<std::size_t>(ndocs) * (8 + (dists ? 4 : 0));
  if (ndocs > kMaxFrame / 8 || len != need) return -1;
  out->docs.resize(ndocs);
  for (std::uint32_t i = 0; i < ndocs; ++i) {
    out->docs[i] = Get<std::int64_t>(q + kFixed + 8 * i);
  }
  return static_cast<long>(4 + len);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::Connect(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool Conn::SendAll(const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

int Conn::Recv(WireResponse* out, int timeout_ms) {
  for (;;) {
    if (head_ < buf_.size()) {
      const long used = DecodeResponse(buf_.data() + head_,
                                       buf_.size() - head_, out);
      if (used < 0) return -1;
      if (used > 0) {
        head_ += static_cast<std::size_t>(used);
        if (head_ == buf_.size()) {
          buf_.clear();
          head_ = 0;
        }
        return 1;
      }
    }
    if (timeout_ms >= 0) {
      pollfd pfd{fd_, POLLIN, 0};
      const int r = ::poll(&pfd, 1, timeout_ms);
      if (r == 0) return 0;
      if (r < 0 && errno != EINTR) return -1;
      if (r < 0) continue;
    }
    std::uint8_t tmp[65536];
    const ssize_t got = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return -1;
    buf_.insert(buf_.end(), tmp, tmp + got);
  }
}

std::string HttpGet(int port, const std::string& path) {
  Conn c;
  if (!c.Connect(port)) return "";
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
  if (!c.SendAll(std::vector<std::uint8_t>(req.begin(), req.end()))) {
    return "";
  }
  std::string resp;
  char tmp[65536];
  for (;;) {
    const ssize_t got = ::recv(c.fd(), tmp, sizeof(tmp), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    resp.append(tmp, static_cast<std::size_t>(got));
  }
  if (resp.rfind("HTTP/1.1 200", 0) != 0) return "";
  const std::size_t body = resp.find("\r\n\r\n");
  return body == std::string::npos ? "" : resp.substr(body + 4);
}

std::map<std::string, double> ParseMetrics(const std::string& body) {
  std::map<std::string, double> out;
  std::istringstream in(body);
  std::string line;
  const std::string prefix = "proximity_";
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    std::string name = line.substr(0, sp);
    if (name.find('{') != std::string::npos) continue;
    if (name.rfind(prefix, 0) == 0) name = name.substr(prefix.size());
    out[name] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

}  // namespace sb
