// A SIGPROF stack sampler to LD_PRELOAD into the ladder benchmark's `ladder` binary, for
// profiling without perf. Every millisecond of process CPU time (ITIMER_PROF, all threads
// together) the thread that used it records its stack.
//
//   cc -O2 -shared -fPIC -o sampler.so scripts/profile/sampler.c
//   LD_PRELOAD=$PWD/sampler.so ladder run --workload fleet_wire ...
//   python3 scripts/profile/report.py hdprof.<pid>.raw
//
// scripts/profile_ladder.sh does all three. Each process writes two files into its working
// directory: <name>.maps (a copy of /proc/self/maps, to symbolize against) and <name>.raw
// (one record per sample: a uint64 frame count, then that many uint64 return addresses,
// innermost first, the handler's own two frames included). <name> is hdprof.<pid> for the
// preloaded process and hdprof.<parent pid>-<pid> for a process it forked.
//
// It is safe only because the ladder forks its helpers and never execs:
//  - A forked child does not inherit interval timers, so a pthread_atfork child handler
//    re-arms the timer and opens the child's own files. An exec'd program would run without
//    the timer until its own constructor ran, and would sample a different binary.
//  - The helpers end with _exit(), which runs no destructors and flushes no stdio, so each
//    sample is written straight from the handler with write(2): nothing is buffered.
//  - backtrace() is not async-signal-safe on its first call (it loads libgcc_s), so the
//    constructor calls it once before the timer is armed.
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

enum { kMaxFrames = 64, kPeriodUs = 1000 };

static int g_raw_fd = -1;

static int OpenOutput(const char* suffix, int forked) {
  char path[64];
  if (forked) {
    snprintf(path, sizeof(path), "hdprof.%d-%d.%s", (int)getppid(), (int)getpid(), suffix);
  } else {
    snprintf(path, sizeof(path), "hdprof.%d.%s", (int)getpid(), suffix);
  }
  return open(path, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
}

// Copies /proc/self/maps, so the report can turn addresses into (module, offset).
static void WriteMaps(int forked) {
  int out = OpenOutput("maps", forked);
  int in = open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
  if (out >= 0 && in >= 0) {
    char buf[4096];
    ssize_t n;
    while ((n = read(in, buf, sizeof(buf))) > 0) {
      if (write(out, buf, (size_t)n) != n) {
        break;
      }
    }
  }
  if (in >= 0) {
    close(in);
  }
  if (out >= 0) {
    close(out);
  }
}

static void OnProf(int sig) {
  (void)sig;
  int saved = errno;
  uint64_t record[1 + kMaxFrames];
  void* frames[kMaxFrames];
  int n = backtrace(frames, kMaxFrames);
  record[0] = (uint64_t)n;
  for (int i = 0; i < n; ++i) {
    record[1 + i] = (uint64_t)(uintptr_t)frames[i];
  }
  if (g_raw_fd >= 0) {
    ssize_t rc = write(g_raw_fd, record, sizeof(uint64_t) * (size_t)(1 + n));
    (void)rc;
  }
  errno = saved;
}

static void Arm(int forked) {
  g_raw_fd = OpenOutput("raw", forked);
  WriteMaps(forked);
  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = kPeriodUs;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, NULL);
}

static void OnForkChild(void) {
  if (g_raw_fd >= 0) {
    close(g_raw_fd);
  }
  Arm(1);
}

__attribute__((constructor)) static void Start(void) {
  void* warm[1];
  backtrace(warm, 1);
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_handler = OnProf;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  pthread_atfork(NULL, NULL, OnForkChild);
  Arm(0);
}
