// The obs layer's one path to perf_event_open(2), shared by the
// hardware counter groups (perf_counters.cc) and the sampling
// profiler's task-clock rings (profiler/sampling_profiler.cc): the
// syscall with the attr fields both need, the PBFS_PERF_DISABLE
// switch, and the text a failed open is reported with.
//
// Internal to src/obs/. perf_counters.h is included everywhere through
// trace.h and must stay free of obs headers, so only .cc files include
// this one.
#ifndef PBFS_OBS_PERF_EVENT_H_
#define PBFS_OBS_PERF_EVENT_H_

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace pbfs {
namespace obs {

// True when environment variable `name` is set to anything other than
// "" or "0". Read on every call, so tests may toggle it between runs.
inline bool EnvFlagSet(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' && std::strcmp(value, "0") != 0;
}

// PBFS_PERF_DISABLE: forces the counters' null backend and the
// profiler's SIGPROF fallback.
inline bool PerfDisabledByEnv() { return EnvFlagSet("PBFS_PERF_DISABLE"); }

// Why perf_event_open failed with `err`, as one line.
inline std::string PerfOpenErrorText(int err) {
  if (err == EACCES || err == EPERM) {
    return std::string("perf_event_open denied: ") + std::strerror(err) +
           " (kernel.perf_event_paranoid too strict or missing "
           "CAP_PERFMON)";
  }
  return std::string("perf_event_open failed: ") + std::strerror(err);
}

#ifdef __linux__
// Opens `attr` on thread `tid` (0 = the calling thread), any CPU. Sets
// size, exclude_kernel and exclude_hv (user-space self-monitoring
// works up to perf_event_paranoid=2, the default on most distros); the
// fd is close-on-exec. Returns the fd, or -1 with errno set.
inline int PerfEventOpen(perf_event_attr attr, pid_t tid, int group_fd) {
  attr.size = sizeof(attr);
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  return static_cast<int>(syscall(SYS_perf_event_open, &attr, tid,
                                  /*cpu=*/-1, group_fd,
                                  PERF_FLAG_FD_CLOEXEC));
}
#endif  // __linux__

}  // namespace obs
}  // namespace pbfs

#endif  // PBFS_OBS_PERF_EVENT_H_
