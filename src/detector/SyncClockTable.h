//===-- detector/SyncClockTable.h - Flat SyncVar clock table ---*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-SyncVar vector clocks of the happens-before detectors
/// (HBDetector, FastTrackDetector). LiteRace logs every synchronization
/// operation and samples only memory accesses (§3.2), so a sampled log is
/// nearly all sync and this table sits on the hottest path of its replay.
/// Both detectors share it, and with it the three sync steps below.
///
/// Layout (docs/DETECTOR.md, "Sync-clock table"):
///
///   - An open-addressed index, linear probing, power-of-two capacity,
///     load <= 1/2, of 16-byte {key, index + 1} slots (index + 1 == 0
///     marks an empty slot, so every 64-bit key, 0 and ~0 included, is
///     storable). Keys are hashed with mix64 (support/Hashing.h).
///   - The clocks themselves, dense by index in first-insertion order, in
///     fixed blocks that never move: references stay valid across growth,
///     and growth copies 16-byte slots, never clocks. A block's storage is
///     raw until a clock is placed in it, so pages past the last clock
///     are never touched.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_DETECTOR_SYNCCLOCKTABLE_H
#define LITERACE_DETECTOR_SYNCCLOCKTABLE_H

#include "detector/VectorClock.h"
#include "runtime/Ids.h"
#include "support/Compiler.h"
#include "support/Hashing.h"

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace literace {

/// SyncVar -> VectorClock map with stable clock addresses, and the
/// happens-before sync steps over it.
class SyncClockTable {
public:
  /// Clocks per storage block.
  static constexpr size_t BlockClocks = 4096;

  SyncClockTable() : Slots(MinSlots) {}
  SyncClockTable(const SyncClockTable &) = delete;
  SyncClockTable &operator=(const SyncClockTable &) = delete;
  ~SyncClockTable() {
    for (size_t I = 0; I != Count; ++I)
      at(I).~VectorClock();
  }

  /// Clock of \p S, or nullptr if \p S was never inserted. Inserts
  /// nothing.
  LR_ALWAYS_INLINE VectorClock *find(SyncVar S) {
    const size_t Mask = Slots.size() - 1;
    for (size_t I = mix64(S) & Mask;; I = (I + 1) & Mask) {
      const Slot &E = Slots[I];
      if (E.IndexPlusOne == 0)
        return nullptr;
      if (E.Key == S)
        return &at(E.IndexPlusOne - 1);
    }
  }

  /// Clock of \p S, inserting an empty one on first use. The reference
  /// stays valid for the table's lifetime.
  LR_ALWAYS_INLINE VectorClock &ref(SyncVar S) {
    const size_t Mask = Slots.size() - 1;
    for (size_t I = mix64(S) & Mask;; I = (I + 1) & Mask) {
      const Slot &E = Slots[I];
      if (E.IndexPlusOne == 0)
        return insert(S, I);
      if (E.Key == S)
        return at(E.IndexPlusOne - 1);
    }
  }

  /// Acquire of \p S by a thread with clock \p Thread: joins the clock
  /// \p S last published. A SyncVar never released has nothing to give,
  /// and stays absent.
  LR_ALWAYS_INLINE void acquire(VectorClock &Thread, SyncVar S) {
    if (const VectorClock *Sync = find(S))
      Thread.joinWith(*Sync);
  }

  /// Release of \p S by thread \p T with clock \p Thread: publishes the
  /// clock into \p S, then ticks \p T so that accesses after the release
  /// are not confused with the knowledge just published.
  LR_ALWAYS_INLINE void release(VectorClock &Thread, ThreadId T,
                                SyncVar S) {
    ref(S).joinWith(Thread);
    Thread.tick(T);
  }

  /// Acquire then release (AcqRel, and §4.3's Alloc/Free page sync) in
  /// one probe. After the join Thread >= Sync pointwise, so the copy
  /// equals Sync.joinWith(Thread).
  LR_ALWAYS_INLINE void acquireRelease(VectorClock &Thread, ThreadId T,
                                       SyncVar S) {
    VectorClock &Sync = ref(S);
    Thread.joinWith(Sync);
    Sync = Thread;
    Thread.tick(T);
  }

  /// Number of SyncVars with a clock.
  size_t size() const { return Count; }

  /// Index capacity in slots (exposed for tests).
  size_t slotCount() const { return Slots.size(); }

private:
  static constexpr size_t MinSlots = 16;

  struct Slot {
    uint64_t Key = 0;
    uint64_t IndexPlusOne = 0;
  };

  struct alignas(VectorClock) Block {
    unsigned char Bytes[BlockClocks * sizeof(VectorClock)];
  };

  VectorClock &at(size_t Index) {
    return *std::launder(reinterpret_cast<VectorClock *>(
        Blocks[Index / BlockClocks]->Bytes +
        (Index % BlockClocks) * sizeof(VectorClock)));
  }

  /// Adds \p S at empty slot \p Free (where its probe ended), growing
  /// the index first when that would exceed load 1/2.
  LR_NOINLINE VectorClock &insert(SyncVar S, size_t Free) {
    if ((Count + 1) * 2 > Slots.size()) {
      rehash(Slots.size() * 2);
      const size_t Mask = Slots.size() - 1;
      for (Free = mix64(S) & Mask; Slots[Free].IndexPlusOne != 0;
           Free = (Free + 1) & Mask)
        ;
    }
    if (Count % BlockClocks == 0) // Raw storage: not value-initialized.
      Blocks.push_back(std::unique_ptr<Block>(new Block));
    unsigned char *Storage =
        Blocks.back()->Bytes + (Count % BlockClocks) * sizeof(VectorClock);
    Slots[Free] = Slot{S, ++Count};
    return *new (Storage) VectorClock();
  }

  void rehash(size_t NewSlots) {
    std::vector<Slot> Old(NewSlots);
    Old.swap(Slots);
    const size_t Mask = NewSlots - 1;
    for (const Slot &E : Old) {
      if (E.IndexPlusOne == 0)
        continue;
      size_t I = mix64(E.Key) & Mask;
      while (Slots[I].IndexPlusOne != 0)
        I = (I + 1) & Mask;
      Slots[I] = E;
    }
  }

  std::vector<Slot> Slots;
  std::vector<std::unique_ptr<Block>> Blocks;
  size_t Count = 0;
};

} // namespace literace

#endif // LITERACE_DETECTOR_SYNCCLOCKTABLE_H
