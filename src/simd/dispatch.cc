#include "src/simd/dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/core/status.h"
#include "src/obs/counters.h"
#include "src/simd/kernels.h"

namespace dlsys {
namespace simd {
namespace {

/// True when the running CPU can execute the given table's code. The
/// compiled-in check already happened (a missing TU returns nullptr), so
/// this is purely the runtime probe. Both vector tables enter the
/// PCLMULQDQ CRC-32 fold, so both probes ask for pclmul too.
bool CpuCanRun(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("pclmul") != 0;
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("pclmul") != 0;
#else
      return false;
#endif
  }
  return false;
}

const KernelTable* CompiledTable(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return GetScalarTable();
    case Isa::kAvx2:
      return GetAvx2Table();
    case Isa::kAvx512:
      return GetAvx512Table();
  }
  return nullptr;
}

const KernelTable* SupportedTable(Isa isa) {
  const KernelTable* table = CompiledTable(isa);
  return (table != nullptr && CpuCanRun(isa)) ? table : nullptr;
}

/// Reads DLSYS_ISA: OK with *forced = nullptr when unset or empty, OK with
/// the named table when this build and CPU can run it, else an
/// InvalidArgument naming the value.
Status ReadIsaEnv(const KernelTable** forced) {
  *forced = nullptr;
  const char* env = std::getenv("DLSYS_ISA");
  if (env == nullptr || env[0] == '\0') return Status::OK();
  Isa requested = Isa::kScalar;
  if (!ParseIsa(env, &requested)) {
    return Status::InvalidArgument(std::string("DLSYS_ISA=") + env +
                                   " is not one of scalar, avx2, avx512");
  }
  *forced = SupportedTable(requested);
  if (*forced == nullptr) {
    return Status::InvalidArgument(std::string("DLSYS_ISA=") + env +
                                   " names an ISA this build/CPU cannot run");
  }
  return Status::OK();
}

/// Resolves the startup table once: DLSYS_ISA if it names a runnable ISA,
/// else the best table this binary+CPU pair can run. A rejected value is
/// reported on stderr here (kernels may run outside any engine) and as a
/// Status by every Compile, so it neither aborts nor falls back silently.
const KernelTable* ResolveStartupTable() {
  const KernelTable* forced = nullptr;
  const Status env = ReadIsaEnv(&forced);
  if (forced != nullptr) return forced;
  const KernelTable* best = SupportedTable(BestSupportedIsa());
  if (!env.ok()) {
    std::fprintf(stderr, "dlsys: %s; running the %s kernels\n",
                 env.message().c_str(), IsaName(best->isa));
  }
  return best;
}

std::atomic<const KernelTable*>& ActiveTableCell() {
  static std::atomic<const KernelTable*> cell{ResolveStartupTable()};
  return cell;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ParseIsa(const char* name, Isa* out) {
  const std::string s(name != nullptr ? name : "");
  for (int i = 0; i < kNumIsas; ++i) {
    if (s == IsaName(static_cast<Isa>(i))) {
      *out = static_cast<Isa>(i);
      return true;
    }
  }
  return false;
}

bool IsaSupported(Isa isa) { return SupportedTable(isa) != nullptr; }

Isa BestSupportedIsa() {
  for (int i = kNumIsas - 1; i >= 0; --i) {
    if (IsaSupported(static_cast<Isa>(i))) return static_cast<Isa>(i);
  }
  return Isa::kScalar;
}

Isa ActiveIsa() {
  return ActiveTableCell().load(std::memory_order_acquire)->isa;
}

void SetIsa(Isa isa) {
  const KernelTable* table = SupportedTable(isa);
  DLSYS_CHECK(table != nullptr,
              "SetIsa: requested ISA not supported by this build/CPU");
  ActiveTableCell().store(table, std::memory_order_release);
}

Status IsaEnvStatus() {
  const KernelTable* forced = nullptr;
  return ReadIsaEnv(&forced);
}

const KernelTable& ActiveKernels() {
  return *ActiveTableCell().load(std::memory_order_acquire);
}

void CountDispatch(const KernelTable& table) {
#if DLSYS_OBS
  // One pre-resolved counter per ISA; the hot path is one sharded
  // relaxed fetch_add, same cost class as every other DLSYS_COUNTER_ADD.
  static obs::Counter* const counters[kNumIsas] = {
      obs::CounterRegistry::Global().counter("kernel.dispatch.scalar"),
      obs::CounterRegistry::Global().counter("kernel.dispatch.avx2"),
      obs::CounterRegistry::Global().counter("kernel.dispatch.avx512"),
  };
  counters[static_cast<int>(table.isa)]->Add(1);
#else
  (void)table;
#endif
}

}  // namespace simd
}  // namespace dlsys
