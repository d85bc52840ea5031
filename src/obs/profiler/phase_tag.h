// Process-global "what BFS phase is running" tag for the sampling
// profiler.
//
// The profiler's samples fire on worker threads, but the knowledge of
// which (variant, level, direction) is executing lives on the
// coordinating thread that runs the level loop: LevelDriver
// (bfs/level_driver.h) sets the tag at the top of each level and
// clears it at the end. Workers never see the probe, so the tag cannot
// be thread-local — it is one process-global word that the
// async-signal-safe sample handler reads with a single relaxed load.
//
// Packing: the variant name is interned into a small append-only table
// (BFS kernels register a handful of string literals, process
// lifetime), so the whole phase fits in a uint64_t:
//
//   bit 63      active (0 means "no BFS level running")
//   bit 62      bottom_up
//   bits 32-47  level (clamped to 16 bits)
//   bits 0-7    interned variant-name index
//
// Concurrent BFS runs (the engine schedules queries onto disjoint
// worker pools) make the word last-writer-wins; samples from the losing
// query are attributed to the winner's phase for the overlap. That is
// an accepted, documented imprecision — the attribution table is a
// ranking tool, not an accounting identity.
//
// Everything here is async-signal-safe on the read side and lock-free
// on the write side; the interning table is append-only under a CAS.
#ifndef PBFS_OBS_PROFILER_PHASE_TAG_H_
#define PBFS_OBS_PROFILER_PHASE_TAG_H_

#include <cstdint>

namespace pbfs {
namespace obs {

// Decoded form of the packed phase word, for the renderer side.
struct BfsPhase {
  const char* variant = nullptr;  // interned span name; nullptr = inactive
  uint32_t level = 0;
  bool bottom_up = false;

  bool active() const { return variant != nullptr; }
};

// Interns `name` (expected: a string literal like "ms-pbfs.level") and
// returns its table index, or -1 when the table is full (64 entries —
// far beyond the handful of kernel variants). Idempotent per pointer
// *and* per content.
int InternPhaseName(const char* name);

// Interned name for `index`, or nullptr when out of range / unset.
const char* PhaseNameByIndex(int index);

// Publishes "a level of `variant_span_name` at `level`, direction
// `bottom_up`, is running". Two relaxed atomic stores per BFS level;
// called unconditionally by LevelDriver so the profiler works even
// when no Tracer session is active.
void SetCurrentBfsPhase(const char* variant_span_name, uint32_t level,
                        bool bottom_up);

// Clears the tag (end of the level).
void ClearCurrentBfsPhase();

// The packed word, for the sample handler. 0 means inactive.
uint64_t CurrentPhaseWord();

// Decodes a packed word captured by a sample. Inactive words decode to
// a BfsPhase with variant == nullptr.
BfsPhase DecodePhaseWord(uint64_t word);

}  // namespace obs
}  // namespace pbfs

#endif  // PBFS_OBS_PROFILER_PHASE_TAG_H_
