// Program processes: start, wait for readiness, measure, stop.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "sb.h"

namespace sb {

int Spawn(const std::string& exe, const std::vector<std::string>& args,
          const std::string& log) {
  std::vector<std::string> all = {exe};
  all.insert(all.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : all) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    // Die with the benchmark, so no program process outlives a run.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
  return pid;
}

int ReadPortFile(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (text.empty() || text.back() != '\n') return -1;
  return std::atoi(text.c_str());
}

bool WaitPortFiles(const std::vector<std::string>& paths,
                   const std::vector<int>& pids, double timeout_s,
                   std::vector<int>* ports) {
  const std::int64_t until = NowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
  ports->assign(paths.size(), -1);
  for (;;) {
    bool all = true;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if ((*ports)[i] <= 0) (*ports)[i] = ReadPortFile(paths[i]);
      all = all && (*ports)[i] > 0;
    }
    if (all) return true;
    for (const int pid : pids) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) return false;
    }
    if (NowNs() > until) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

void StopProcess(int pid, double grace_s) {
  if (pid <= 0) return;
  ::kill(pid, SIGTERM);
  const std::int64_t until = NowNs() + static_cast<std::int64_t>(grace_s * 1e9);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || r < 0) return;
    if (NowNs() > until) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

double CpuMicros(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double PeakRssKib(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0.0;
}

bool StartRouter(const std::string& cli, const std::vector<int>& ports,
                 const std::vector<int>& admins, const std::string& stem,
                 std::vector<int>* pids, int* port, int* admin) {
  std::ofstream map(stem + ".map");
  for (std::size_t b = 0; b < ports.size(); ++b) {
    map << "shard " << b << " rpc=127.0.0.1:" << ports[b];
    if (b < admins.size()) map << " admin=127.0.0.1:" << admins[b];
    map << "\n";
  }
  map.close();
  std::remove((stem + ".port").c_str());
  std::remove((stem + ".admin").c_str());
  const int pid = Spawn(
      cli,
      {"route", "shard_map=" + stem + ".map", "--listen", "127.0.0.1:0",
       "port_file=" + stem + ".port", "--admin", "127.0.0.1:0",
       "admin_port_file=" + stem + ".admin", "quiet=true"},
      stem + ".log");
  if (pid < 0) return false;
  pids->push_back(pid);
  std::vector<int> got;
  if (!WaitPortFiles({stem + ".port", stem + ".admin"}, *pids, 60, &got)) {
    return false;
  }
  *port = got[0];
  *admin = got[1];
  return true;
}

}  // namespace sb
