// Backend resolution for the Bitvector kernel table. Resolved lazily on
// first use and cached in an atomic so the hot path pays one acquire
// load; SetBitvectorForceScalar re-points it for tests and the repo
// benchmark's probe.

#include "common/bitvector_kernels.h"

#include <atomic>
#include <cstdlib>

namespace colossal {
namespace {

std::atomic<const BitvectorKernels*> g_active{nullptr};

bool ForceScalarFromEnv() {
  const char* value = std::getenv("COLOSSAL_FORCE_SCALAR");
  if (value == nullptr || value[0] == '\0') return false;
  return !(value[0] == '0' && value[1] == '\0');
}

const BitvectorKernels& Resolve() {
  if (ForceScalarFromEnv()) return ScalarBitvectorKernels();
  const BitvectorKernels* avx2 = Avx2BitvectorKernels();
  if (avx2 != nullptr && CpuSupportsAvx2()) return *avx2;
  return ScalarBitvectorKernels();
}

}  // namespace

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const BitvectorKernels& ActiveBitvectorKernels() {
  const BitvectorKernels* active = g_active.load(std::memory_order_acquire);
  if (active == nullptr) {
    // A racing first use resolves twice to the same answer; benign.
    active = &Resolve();
    g_active.store(active, std::memory_order_release);
  }
  return *active;
}

void SetBitvectorForceScalar(bool force_scalar) {
  g_active.store(force_scalar ? &ScalarBitvectorKernels() : &Resolve(),
                 std::memory_order_release);
}

}  // namespace colossal
