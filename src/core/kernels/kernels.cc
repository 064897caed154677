#include "src/core/kernels/kernels.h"

#include <atomic>

namespace p3c::core::kernels {

namespace detail {
// Defined in kernels_avx2.cc; returns nullptr when the toolchain could
// not target AVX2 (the dispatcher additionally gates on the running CPU).
const Ops* Avx2OpsOrNull();
}  // namespace detail

namespace {

std::atomic<const Ops*> g_active{nullptr};

// The avx2 TU's std::popcount compiles to popcnt, so both are required.
bool CpuHasAvx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("popcnt") != 0;
#else
  return false;
#endif
}

}  // namespace

std::vector<const Ops*> AvailableBackends() {
  std::vector<const Ops*> backends;
  const Ops* avx2 = detail::Avx2OpsOrNull();
  if (avx2 != nullptr && CpuHasAvx2()) backends.push_back(avx2);
  backends.push_back(&ScalarOps());
  return backends;
}

const Ops& Active() {
  const Ops* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    // First use: detect and publish. A racing first use stores the same
    // pointer, so the benign double-store needs no lock.
    ops = AvailableBackends().front();
    g_active.store(ops, std::memory_order_release);
  }
  return *ops;
}

Status SetBackend(const std::string& name) {
  const std::vector<const Ops*> backends = AvailableBackends();
  if (name == "auto") {
    g_active.store(backends.front(), std::memory_order_release);
    return Status::OK();
  }
  for (const Ops* ops : backends) {
    if (name == ops->name) {
      g_active.store(ops, std::memory_order_release);
      return Status::OK();
    }
  }
  std::string choices = "auto";
  for (const Ops* ops : backends) {
    choices += ", ";
    choices += ops->name;
  }
  return Status::InvalidArgument("unknown or unsupported kernel backend '" +
                                 name + "' (choices: " + choices + ")");
}

}  // namespace p3c::core::kernels
