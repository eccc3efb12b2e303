#pragma once
// Thread names: what `top -H`, debuggers and /proc/<pid>/task/*/comm show,
// so per-thread CPU can be attributed to a runtime role by name.

#include <pthread.h>

#include <string>

namespace bsk::support {

/// Name the calling thread. Linux keeps 15 characters; longer names are
/// truncated to fit.
inline void set_thread_name(const std::string& name) {
  ::pthread_setname_np(::pthread_self(), name.substr(0, 15).c_str());
}

}  // namespace bsk::support
