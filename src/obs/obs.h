// Observability switchboard. Every instrumentation site is compiled in
// and checks one runtime gate, obs::SetEnabled(bool) (default off). With
// the gate off a site costs one relaxed atomic load plus an untaken
// branch, which paired runs could not tell apart from compiling the sites
// out (TESTING.md §5).
//
// Instrumentation never changes behaviour: the golden byte-identity
// suite passes with observability disabled and enabled.
#ifndef SBR_OBS_OBS_H_
#define SBR_OBS_OBS_H_

#include <atomic>

namespace sbr::obs {

namespace internal {
/// The process-wide runtime gate. Relaxed is deliberate: enabling
/// observability mid-run may miss a few in-flight events, never corrupts.
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// The runtime gate every instrumentation macro checks first.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Flips the runtime gate.
void SetEnabled(bool on);

/// RAII scope for tests and benches: enables on entry, restores on exit.
class EnabledScope {
 public:
  explicit EnabledScope(bool on = true) : prev_(Enabled()) { SetEnabled(on); }
  ~EnabledScope() { SetEnabled(prev_); }
  EnabledScope(const EnabledScope&) = delete;
  EnabledScope& operator=(const EnabledScope&) = delete;

 private:
  bool prev_;
};

}  // namespace sbr::obs

#endif  // SBR_OBS_OBS_H_
