// spawn: runs one command and writes the command's resource usage.
//
//   spawn <report file> <program> [args...]
//
// Writes "<user s> <system s> <peak RSS KiB>\n" of the program to the
// report file and exits with the program's status.  The kernel's peak RSS
// of a child also counts the memory the child held between fork and exec,
// which for a child of run.py is the Python process's size; forked from
// this small process, the peak is the program's.  SIGTERM or SIGINT
// to spawn kills the program, which spawn then reaps before it exits; the
// program also gets SIGKILL if spawn itself dies.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>

namespace {

volatile sig_atomic_t g_child = 0;

void KillChild(int) {
  if (g_child > 0) kill(g_child, SIGKILL);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: spawn <report file> <program> [args...]\n");
    return 125;
  }
  struct sigaction forward {};
  forward.sa_handler = KillChild;
  sigaction(SIGTERM, &forward, nullptr);
  sigaction(SIGINT, &forward, nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("spawn: fork");
    return 125;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    execvp(argv[2], argv + 2);
    std::perror("spawn: exec");
    _exit(127);
  }
  g_child = pid;
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("spawn: wait4");
      return 125;
    }
  }
  std::FILE* report = std::fopen(argv[1], "w");
  if (report == nullptr ||
      std::fprintf(report, "%ld.%06ld %ld.%06ld %ld\n",
                   static_cast<long>(usage.ru_utime.tv_sec),
                   static_cast<long>(usage.ru_utime.tv_usec),
                   static_cast<long>(usage.ru_stime.tv_sec),
                   static_cast<long>(usage.ru_stime.tv_usec),
                   usage.ru_maxrss) < 0 ||
      std::fclose(report) != 0) {
    std::perror("spawn: report");
    return 125;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + WTERMSIG(status);
}
