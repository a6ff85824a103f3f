/// \file thread_annotations.hpp
/// \brief Clang Thread Safety Analysis macros for compile-time locking
///        contracts.
///
/// Every mutex-protected structure of the concurrent layers (TaskPool and
/// the TaskGroups its one mutex guards, SoftWatchdog, JobService,
/// PhaseTimer, fault::Registry) declares which capability
/// guards which field (`VERIQC_GUARDED_BY`) and which functions demand or
/// acquire capabilities (`VERIQC_REQUIRES`, `VERIQC_ACQUIRE`/
/// `VERIQC_RELEASE`, `VERIQC_EXCLUDES`). Under Clang the
/// contracts are machine-checked at compile time:
///
///     clang++ ... -Wthread-safety -Werror=thread-safety
///
/// (wired into the build for every preset whenever the compiler is Clang,
/// and run as the `static-analysis` CI job / `scripts/check_thread_safety.sh`).
/// Off Clang every macro expands to nothing, so GCC builds are unaffected.
///
/// The annotated primitives live in support/mutex.hpp: a
/// `veriqc::support::Mutex` capability wrapper and the relockable scoped
/// `veriqc::support::LockGuard`. Raw `std::mutex` is invisible to the
/// analysis (libstdc++ ships no annotations), which is exactly why the
/// concurrent layers use the wrapper.
///
/// `VERIQC_NO_THREAD_SAFETY_ANALYSIS` is the only blanket escape hatch and
/// is reserved for documented lock-free fast paths; every use must carry a
/// comment justifying why the analysis cannot see the invariant.
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define VERIQC_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define VERIQC_THREAD_ANNOTATION(x) // no-op off Clang
#endif

/// Marks a type as a capability (a lock). `name` appears in diagnostics
/// ("mutex", "shared_mutex", ...).
#define VERIQC_CAPABILITY(name) VERIQC_THREAD_ANNOTATION(capability(name))

/// Marks an RAII type whose lifetime acquires/releases a capability.
#define VERIQC_SCOPED_CAPABILITY VERIQC_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read or written while holding `x`.
#define VERIQC_GUARDED_BY(x) VERIQC_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field: the *pointee* may only be touched while holding `x`.
#define VERIQC_PT_GUARDED_BY(x) VERIQC_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the listed capabilities held on entry (and still held
/// on exit).
#define VERIQC_REQUIRES(...)                                                   \
  VERIQC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define VERIQC_REQUIRES_SHARED(...)                                            \
  VERIQC_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and does not release it before return.
#define VERIQC_ACQUIRE(...)                                                    \
  VERIQC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define VERIQC_ACQUIRE_SHARED(...)                                             \
  VERIQC_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases a capability held on entry.
#define VERIQC_RELEASE(...)                                                    \
  VERIQC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define VERIQC_RELEASE_SHARED(...)                                             \
  VERIQC_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function attempts the acquisition; `result` is the success return value.
#define VERIQC_TRY_ACQUIRE(...)                                                \
  VERIQC_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (the function acquires them
/// itself, or hands work to something that does). Checked under
/// -Wthread-safety-analysis for direct self-deadlock.
#define VERIQC_EXCLUDES(...) VERIQC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to a capability-guarded object.
#define VERIQC_RETURN_CAPABILITY(x)                                            \
  VERIQC_THREAD_ANNOTATION(lock_returned(x))

/// Assert (at runtime, from the analysis' point of view) that the capability
/// is held; used when acquisition is invisible to the analysis.
#define VERIQC_ASSERT_CAPABILITY(x)                                            \
  VERIQC_THREAD_ANNOTATION(assert_capability(x))

/// Opt a function out of the analysis entirely. Reserved for documented
/// lock-free fast paths; every use must explain the invariant in a comment.
#define VERIQC_NO_THREAD_SAFETY_ANALYSIS                                       \
  VERIQC_THREAD_ANNOTATION(no_thread_safety_analysis)
