// Litmus-style memory-program models: bounded programs over a handful of
// shared byte variables whose interleavings the model checker explores under
// MemModel::kSC or MemModel::kTSO (model.h). This is the weak-memory leg of
// the verification story (ROADMAP item "weak-memory-model checking of the
// sync substrate"), following the intermediate-memory-model approach of
// Podkopaev et al. and the Arc-under-weak-memory methodology of Jacobs &
// Fasse (PAPERS.md): encode each production primitive pair as a small bounded
// program whose atomic annotations MIRROR the real code, explore it under a
// store-buffer semantics, and fix production ordering where the checker
// reaches an invariant violation.
//
// TSO semantics (MemProgModel::Successors under kTSO):
//   * every store enters the executing thread's bounded FIFO store buffer;
//   * loads forward from the own buffer (newest entry for the variable)
//     before falling back to shared memory;
//   * a per-thread nondeterministic FLUSH step commits the oldest buffered
//     store to shared memory — the explorer interleaves flushes with all
//     other steps, so every drain schedule is explored;
//   * RMW steps (exchange / fetch_add / fetch_or / CAS) and seq_cst fences or
//     stores drain the whole buffer eagerly, mirroring x86 LOCK-prefixed
//     instructions and MFENCE;
//   * acquire/release annotations compile to plain accesses on x86, so under
//     kTSO they do not add ordering beyond the FIFO buffer — the models carry
//     them anyway because they must mirror the production source, and because
//     they ARE load-bearing against compiler reordering and non-TSO hardware
//     (see DESIGN.md §10's annotation mapping table).
//
// The net effect: kTSO adds exactly the store->load reordering x86 permits.
// The SB litmus (two threads each storing then loading the other's flag) must
// reach r1 == r2 == 0 under kTSO and must not under kSC; MP and LB stay
// forbidden under both — tests/litmus_test.cc pins this expected-outcome
// table to validate the semantics itself.
#ifndef SRC_VERIF_LITMUS_MODEL_H_
#define SRC_VERIF_LITMUS_MODEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/verif/model.h"

namespace cortenmm {

// Memory-order annotation carried by every memory instruction. The names
// match std::memory_order; the TSO interpreter maps them to x86 semantics
// (kSeqCst store/fence => drain; everything else => plain access).
enum class MO : uint8_t {
  kRelaxed = 0,
  kAcquire,
  kRelease,
  kAcqRel,
  kSeqCst,
};

// One instruction of a model thread. Build scripts with the static factories;
// |target| fields are absolute instruction indices within the thread.
struct Instr {
  enum class Kind : uint8_t {
    kLoad,      // reg = read(var)
    kStore,     // write(var, imm)
    kStoreReg,  // write(var, regs[reg])
    kExchange,  // reg = atomically {old = var; var = imm; old}
    kFetchAdd,  // reg = atomically {old = var; var = old + imm (wrap); old}
    kFetchOr,   // reg = atomically {old = var; var = old | imm; old}
    kCas,       // reg = atomically {var == imm ? (var = imm2; 1) : 0}
    kFence,     // std::atomic_thread_fence(order)
    kSetReg,    // reg = imm
    kAddReg,    // reg = reg + imm (wrap)
    kBranchEq,  // if (reg == imm) goto target
    kBranchNe,  // if (reg != imm) goto target
    kGoto,      // goto target
  };

  Kind kind;
  uint8_t var = 0;
  uint8_t reg = 0;
  uint8_t imm = 0;
  uint8_t imm2 = 0;    // CAS desired value.
  uint8_t target = 0;  // Branch destination (instruction index).
  MO order = MO::kSeqCst;

  static Instr Load(int reg, int var, MO order);
  static Instr Store(int var, int imm, MO order);
  static Instr StoreReg(int var, int reg, MO order);
  static Instr Exchange(int reg, int var, int imm, MO order);
  static Instr FetchAdd(int reg, int var, int imm, MO order);
  static Instr FetchOr(int reg, int var, int imm, MO order);
  static Instr Cas(int reg, int var, int expected, int desired, MO order);
  static Instr Fence(MO order);
  static Instr SetReg(int reg, int imm);
  static Instr AddReg(int reg, int imm);
  static Instr BranchEq(int reg, int imm, int target);
  static Instr BranchNe(int reg, int imm, int target);
  static Instr Goto(int target);
};

// A bounded multi-threaded program over shared byte variables, explorable by
// ModelChecker under either memory model. Thread scripts run to completion;
// a thread whose pc reached the end of its script but whose store buffer is
// still non-empty keeps offering flush steps, so buffered stores always
// commit and IsFinal() implies quiescent memory.
class MemProgModel final : public Model {
 public:
  // Per-thread FIFO store-buffer capacity under kTSO. A store step with a
  // full buffer is simply disabled until a flush frees a slot (flushes are
  // always enabled while the buffer is non-empty, so this never deadlocks).
  static constexpr int kStoreBufferCap = 4;

  struct ThreadScript {
    std::vector<Instr> code;
  };

  // Read-only decoded view of a state, handed to invariants.
  class View {
   public:
    View(const MemProgModel& model, const ModelState& state)
        : model_(model), state_(state) {}

    // Committed shared memory (store buffers NOT applied).
    uint8_t Mem(int var) const;
    uint8_t Reg(int thread, int reg) const;
    int Pc(int thread) const;
    // Thread finished its script (its buffer may still hold stores).
    bool Done(int thread) const;
    // Buffered (uncommitted) stores of |thread|.
    int Buffered(int thread) const;
    // Every thread done AND every buffer drained: the quiescent final state.
    bool AllDone() const;

   private:
    const MemProgModel& model_;
    const ModelState& state_;
  };

  // Safety invariant evaluated on EVERY reachable state. Return false and
  // fill |why| to report a violation. Litmus "forbidden outcome" checks guard
  // on View::AllDone(); protocol invariants (mutual exclusion) inspect Pc().
  using Invariant = std::function<bool(const View&, std::string* why)>;

  MemProgModel(std::string name, int num_vars, int num_regs,
               std::vector<ThreadScript> threads);

  void SetInitialMem(int var, uint8_t value);
  void SetInvariant(Invariant invariant) { invariant_ = std::move(invariant); }
  void SetMemModel(MemModel model) { mem_model_ = model; }

  int num_threads() const { return static_cast<int>(threads_.size()); }

  // Model interface.
  const char* name() const override { return name_.c_str(); }
  MemModel mem_model() const override { return mem_model_; }
  ModelState Initial() const override;
  std::vector<ModelState> Successors(const ModelState& state) const override;
  bool CheckInvariants(const ModelState& state, std::string* violation) const override;
  bool IsFinal(const ModelState& state) const override;

 private:
  friend class View;

  // State layout: [mem[0..num_vars)] then per thread
  //   [pc, regs[0..num_regs), buf_count, (var, val) x kStoreBufferCap].
  int ThreadBase(int thread) const;
  int StateSize() const;

  // Executes the instruction at |pc| of |thread| on a copy of |state| and
  // appends the resulting state(s) to |out|. Returns false when the step is
  // currently disabled (store with a full buffer under kTSO).
  bool Step(const ModelState& state, int thread, std::vector<ModelState>* out) const;

  // Drains the oldest buffered store of |thread|.
  ModelState FlushOne(const ModelState& state, int thread) const;
  void DrainAllLocked(ModelState& state, int thread) const;

  uint8_t LoadValue(const ModelState& state, int thread, int var) const;

  std::string name_;
  int num_vars_;
  int num_regs_;
  std::vector<ThreadScript> threads_;
  std::vector<uint8_t> initial_mem_;
  Invariant invariant_;
  MemModel mem_model_ = MemModel::kSC;
};

// Runs |model| under kSC then kTSO (restoring the model's configured memory
// model afterwards) and reports both results plus the number of TSO-only
// states — the store-buffer interleavings SC cannot reach — which also feeds
// the kLitmusTsoOnlyStates telemetry counter. TSO exploring a superset of SC
// states is a structural guarantee (tests pin it); |tso_only_states| is
// meaningful when both runs complete without a violation.
struct MemModelComparison {
  ModelCheckResult sc;
  ModelCheckResult tso;
  uint64_t tso_only_states = 0;
};
MemModelComparison CompareMemModels(MemProgModel& model, uint64_t max_states = 0);

// --- Production-primitive litmus models -------------------------------------
//
// Each factory returns a bounded model whose scripts mirror one production
// primitive pair, annotation for annotation (the comments in the .cc map each
// instruction to its source line). The kAsWritten variants must pass under
// kTSO; the broken variants encode the counterexamples the checker finds when
// an ordering ingredient is removed, and stay as regressions.

// Classic sanity litmus validating the TSO semantics itself.
// SB: Tx {x=1; r=y}  Ty {y=1; r=x}. |fenced| inserts a seq_cst fence between
// the store and the load (production analog: RCU's seq_cst reader publication
// in src/sync/rcu.cc). Invariant forbids the r1==r2==0 outcome, so the run
// FAILS exactly when the outcome is reachable: unfenced kTSO.
std::unique_ptr<MemProgModel> MakeSbLitmus(bool fenced);
// MP: message passing (data then flag release; flag acquire then data).
// Forbidden: flag observed, data stale. Unreachable under SC and TSO.
std::unique_ptr<MemProgModel> MakeMpLitmus();
// LB: load buffering (r=x; y=1 || r=y; x=1). Forbidden: both loads 1.
// Unreachable under SC and TSO (loads are never delayed past later stores).
std::unique_ptr<MemProgModel> MakeLbLitmus();

// SeqCount writer vs reader (src/sync/seqlock.h + the Linux-baseline per-VMA
// speculative fault protocol): writer brackets two data stores with acq_rel
// fetch_add increments; reader runs the PR-3 one-load fast path (acquire
// load, odd-spin) then ReadValidate (acquire fence + relaxed re-load).
// Invariant: a validated snapshot never observes torn data.
enum class SeqCountVariant {
  kAsWritten,  // Mirrors production: passes under kSC and kTSO.
  // Writer "increments" with a non-atomic load;add;store instead of the
  // production fetch_add, and a second writer races: both writers read the
  // same sequence, publish overlapping odd/even values, and a reader
  // validates a torn snapshot. The counterexample that pins WHY
  // WriteBegin/WriteEnd are RMWs (reachable already under kSC).
  kNonAtomicWriterIncrement,
};
std::unique_ptr<MemProgModel> MakeSeqCountLitmus(SeqCountVariant variant);

// MCS handoff of CnaLock's primary queue (src/sync/cna_lock.cc Lock/Unlock;
// two threads on one node, so no secondary queue): two threads acquire, run
// a non-atomic read-modify-write critical section on a shared counter,
// release with the next-pointer handoff. Invariants: the critical sections
// never overlap and no increment is lost (counter == 2 in every final
// state).
enum class McsVariant {
  kAsWritten,  // tail exchange / next release / locked acquire-spin: passes.
  // Acquisition demoted from the atomic tail exchange to a non-atomic
  // load-then-store of tail: both threads read tail == null and both enter
  // the critical section. The counterexample that pins WHY Lock() must swap
  // the tail with one RMW (reachable already under kSC).
  kNonAtomicTailSwap,
};
std::unique_ptr<MemProgModel> MakeMcsHandoffLitmus(McsVariant variant);

// TlbGather publish vs LATR tick (src/tlb/shootdown.cc): the initiator fills
// a LatrEntry (payload + remaining) and publishes it into its per-CPU buffer
// under the buffer spinlock; each of two targets ticks twice, flushing the
// entry exactly once (HasAcked skip on the second pass), acking via
// fetch_or on acked_mask then fetch_sub on remaining; the last acker frees
// the dead frames outside the lock. Invariants: a target never reads a torn
// entry, never flushes twice (no re-invalidation), and the frames are freed
// only after BOTH targets acked.
enum class LatrVariant {
  kAsWritten,  // Mirrors production: passes under kSC and kTSO.
  // Tick skips the HasAcked check (the pre-PR-3 re-flush bug): the second
  // pass re-invalidates an already-acked entry, double-acks, and frees the
  // frames while a target's flush is still outstanding.
  kNoHasAckedCheck,
};
std::unique_ptr<MemProgModel> MakeLatrLitmus(LatrVariant variant);

// Frame refs word drop (src/pmm/page_desc.h DropRefs; the Arc-drop pattern
// of Jacobs & Fasse): one frame whose refs word packs the refcount (low
// half) and the mapcount (high half; nibbles in the model) starts at
// {refcount 2, mapcount 1}. Exit's full-mm teardown drops its mapping and
// reference with DropRefs(1, 1) (addr_space.cc DropRunRefs) while a LATR
// freer drops the reference a dead unmap left pending with DropRefs(1, 0)
// (DropRunRef). Each frees the frame iff its own RMW returned refcount 1.
// Invariants: the frame is freed exactly once, never while a reference or
// mapping remains, and the mapcount never exceeds the refcount (a borrow
// between the halves would break it).
enum class FrameRefsVariant {
  kAsWritten,  // Decide on the RMW's returned prior pair: passes.
  // Decrement, then re-load the word and free if it reads zero: both
  // droppers can see the other's decrement and free the frame twice
  // (reachable already under kSC).
  kLoadAfterDrop,
};
std::unique_ptr<MemProgModel> MakeFrameRefsLitmus(FrameRefsVariant variant);

// MmRing producer vs flat-combining consumer (src/ring/mm_ring.cc): the
// owner CPU copies the SQE into the ring slot with plain stores, then
// publishes sq_tail with a release store; the combiner acquires sq_tail and
// reads the slot. Invariant: an advanced tail implies a fully-written slot.
enum class RingVariant {
  kAsWritten,  // slot stores sequenced before the sq_tail release: passes.
  // Publication order inverted (tail advanced before the slot is written):
  // the combiner drains a garbage SQE (reachable already under kSC).
  kTailBeforeSlot,
};
std::unique_ptr<MemProgModel> MakeRingPublishLitmus(RingVariant variant);

// Buddy-magazine pre-zero handoff (src/pmm/buddy.cc ScrubBatch vs
// AllocZeroedFrame): the scrubber zeroes every frame byte then sets the head
// descriptor's `zeroed` flag with a release store; the consumer's hit path
// acquire-loads the flag and skips the inline memset. Invariant: a consumer
// that skipped the memset holds all-zero bytes.
enum class PrezeroVariant {
  kAsWritten,  // zero stores sequenced before the flag release: passes.
  // Scrubber raises the flag BEFORE zeroing: the consumer skips the memset
  // on a still-dirty frame (reachable already under kSC).
  kFlagBeforeZero,
};
std::unique_ptr<MemProgModel> MakePrezeroLitmus(PrezeroVariant variant);

// BRAVO bias revocation (src/sync/bravo.cc): reader checks rbias, publishes
// in the visible-readers table with a CAS, re-checks rbias; writer revokes
// rbias then scans the table for lingering readers. Invariant: a fast-path
// reader and the writer are never inside their critical sections together.
enum class BravoVariant {
  // Mirrors the FIXED production code: seq_cst fence between the rbias=false
  // store and the table scan. Passes under kSC and kTSO.
  kFenced,
  // The pre-PR-9 production code: rbias=false was a release store with no
  // fence, so under TSO the writer's scan loads complete while the store
  // sits in its buffer — a reader re-checks rbias, still sees the stale
  // `true`, and takes the fast path inside the write critical section. This
  // is THE TSO-reachable production violation this PR fixes; the variant
  // stays as the regression (must fail under kTSO, pass under kSC).
  kNoFence,
};
std::unique_ptr<MemProgModel> MakeBravoRevokeLitmus(BravoVariant variant);

// CNA lock park/wake handoff (src/sync/cna_lock.cc): a waiter that exhausted
// its spin phase stores parked=1 and re-checks spin before sleeping in
// spin.wait(); the granter stores the grant into spin and then loads parked,
// skipping the notify when it reads 0 (the futex-style optimization that
// avoids a syscall-analog wake on every handoff). Invariant: no lost wakeup —
// the granter never finishes having skipped the notify while the waiter is
// asleep with no wake token it could ever observe.
enum class CnaVariant {
  // Mirrors production: seq_cst fences between each side's store and load
  // (cna_lock.cc Lock park loop / Grant). Passes under kSC and kTSO.
  kFenced,
  // Both fences dropped: waiter stores parked then loads spin, granter
  // stores spin then loads parked — a store-buffering shape on BOTH sides,
  // so under TSO both stores sit in their buffers while both loads read 0.
  // The granter skips the notify, the waiter commits to sleep, and nobody
  // ever wakes it. The counterexample that pins WHY the park/wake protocol
  // needs StoreLoad fences (must fail under kTSO, pass under kSC).
  kNoFence,
};
std::unique_ptr<MemProgModel> MakeCnaHandoffLitmus(CnaVariant variant);

}  // namespace cortenmm

#endif  // SRC_VERIF_LITMUS_MODEL_H_
