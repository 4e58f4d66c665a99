// Daemon processes, their /metrics pages, and /proc accounting.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "harness.h"

namespace roundbench {

namespace {

uint16_t PortAfter(const std::string& line, const std::string& marker) {
  size_t at = line.find(marker);
  if (at == std::string::npos) {
    return 0;
  }
  return static_cast<uint16_t>(std::strtoul(line.c_str() + at + marker.size(), nullptr, 10));
}

std::string ProcPath(int pid, const char* file) {
  return "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) + "/" + file;
}

}  // namespace

std::unique_ptr<Daemon> Daemon::Spawn(const std::vector<std::string>& argv) {
  int fds[2];
  // Built before fork: the child of a multi-threaded process may only make
  // async-signal-safe calls until exec.
  std::vector<char*> args;
  for (const auto& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  if (pipe(fds) != 0) {
    return nullptr;
  }
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return nullptr;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the harness
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(args[0], args.data());
    _exit(127);
  }
  close(fds[1]);
  std::unique_ptr<Daemon> d(new Daemon());
  d->pid_ = pid;
  d->out_fd_ = fds[0];
  d->name_ = argv[0];
  return d;
}

bool Daemon::WaitReady() {
  // The first stdout line names the ports: "... listening on 127.0.0.1:P
  // (... metrics on http://127.0.0.1:M/metrics)".
  std::string line;
  auto deadline = Clock::now() + std::chrono::seconds(20);
  while (line.find('\n') == std::string::npos && Clock::now() < deadline) {
    pollfd p{out_fd_, POLLIN, 0};
    if (poll(&p, 1, 100) <= 0) {
      continue;
    }
    char buf[512];
    ssize_t n = read(out_fd_, buf, sizeof(buf));
    if (n <= 0) {
      break;
    }
    line.append(buf, static_cast<size_t>(n));
  }
  port_ = PortAfter(line, "listening on 127.0.0.1:");
  metrics_port_ = PortAfter(line, "metrics on http://127.0.0.1:");
  if (port_ == 0) {
    std::fprintf(stderr, "roundbench: %s did not come up: %s\n", name_.c_str(), line.c_str());
    return false;
  }
  return true;
}

bool Daemon::Stop(double timeout_s) {
  if (reaped_) {
    return true;
  }
  auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  int status = 0;
  while (true) {
    pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      reaped_ = true;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (Clock::now() >= deadline) {
      break;
    }
    usleep(10000);
  }
  kill(pid_, SIGKILL);
  waitpid(pid_, &status, 0);
  reaped_ = true;
  return false;
}

Daemon::~Daemon() {
  if (!reaped_) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
  }
}

std::map<std::string, double> ScrapeMetrics(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return {};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  timeval tv{5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string body;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const char req[] = "GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
    if (send(fd, req, sizeof(req) - 1, MSG_NOSIGNAL) == static_cast<ssize_t>(sizeof(req) - 1)) {
      char buf[8192];
      ssize_t n;
      while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
        body.append(buf, static_cast<size_t>(n));
      }
    }
  }
  close(fd);
  size_t header_end = body.find("\r\n\r\n");
  return ParseMetrics(header_end == std::string::npos ? "" : body.substr(header_end + 4));
}

std::map<std::string, double> ParseMetrics(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      continue;
    }
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double ProcessCpuSeconds(int pid) {
  if (pid == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  }
  std::ifstream in(ProcPath(pid, "stat"));
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) {
    return 0;
  }
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  double ticks = 0;
  // Fields after "pid (comm) ": state is field 3; utime/stime are 14/15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) {
      ticks += std::strtod(field.c_str(), nullptr);
    }
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb(int pid) {
  std::ifstream in(ProcPath(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss(int pid) {
  std::ofstream out(ProcPath(pid, "clear_refs"));
  out << "5";
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace roundbench
