// Weak-memory litmus suite (ctest label: litmus): explores the bounded
// models of the production primitive pairs under MemModel::kSC and
// MemModel::kTSO. The kAsWritten models mirror src/sync, src/ring, src/tlb
// and src/pmm annotation-for-annotation and must pass under both models; the
// broken variants pin the counterexamples the checker finds when an ordering
// ingredient is removed. BravoRevoke.NoFence is the regression for the
// TSO-reachable production bug this suite caught (src/sync/bravo.cc missing
// the StoreLoad fence between bias revocation and the reader-table scan).
#include <gtest/gtest.h>

#include <cstdio>

#include "src/common/stats.h"
#include "src/verif/litmus_model.h"
#include "src/verif/model.h"

namespace cortenmm {
namespace {

constexpr uint64_t kMaxStates = 50'000'000;

// One line per model so a failing CI run shows the state-space shape at a
// glance: states explored under each memory model and how many interleavings
// only the store buffer can reach.
void PrintSummary(const MemProgModel& model, const MemModelComparison& cmp) {
  std::printf("[litmus] %s: sc_states=%llu tso_states=%llu tso_only=%llu\n",
              model.name(),
              static_cast<unsigned long long>(cmp.sc.states_explored),
              static_cast<unsigned long long>(cmp.tso.states_explored),
              static_cast<unsigned long long>(cmp.tso_only_states));
}

ModelCheckResult RunUnder(MemProgModel& model, MemModel mem_model) {
  model.SetMemModel(mem_model);
  ModelCheckResult result = ModelChecker::Run(model, kMaxStates);
  std::printf("[litmus] %s/%s: states=%llu ok=%d %s\n", model.name(),
              MemModelName(mem_model),
              static_cast<unsigned long long>(result.states_explored),
              result.ok ? 1 : 0, result.ok ? "" : result.violation.c_str());
  return result;
}

// --- Classic sanity: the TSO semantics itself --------------------------------

TEST(ClassicLitmusTest, StoreBufferingReachableUnderTsoOnly) {
  auto model = MakeSbLitmus(/*fenced=*/false);
  EXPECT_TRUE(RunUnder(*model, MemModel::kSC).ok)
      << "SB r1==r2==0 must be unreachable under SC";
  ModelCheckResult tso = RunUnder(*model, MemModel::kTSO);
  EXPECT_FALSE(tso.ok) << "SB r1==r2==0 must be reachable under TSO";
  EXPECT_NE(tso.violation.find("SB outcome"), std::string::npos) << tso.violation;
}

TEST(ClassicLitmusTest, StoreBufferingForbiddenWithFence) {
  auto model = MakeSbLitmus(/*fenced=*/true);
  EXPECT_TRUE(RunUnder(*model, MemModel::kSC).ok);
  EXPECT_TRUE(RunUnder(*model, MemModel::kTSO).ok)
      << "the seq_cst fence must drain the buffer before the load";
}

TEST(ClassicLitmusTest, MessagePassingForbiddenUnderBoth) {
  auto model = MakeMpLitmus();
  EXPECT_TRUE(RunUnder(*model, MemModel::kSC).ok);
  EXPECT_TRUE(RunUnder(*model, MemModel::kTSO).ok)
      << "the FIFO buffer must commit data before flag";
}

TEST(ClassicLitmusTest, LoadBufferingForbiddenUnderBoth) {
  auto model = MakeLbLitmus();
  EXPECT_TRUE(RunUnder(*model, MemModel::kSC).ok);
  EXPECT_TRUE(RunUnder(*model, MemModel::kTSO).ok)
      << "TSO never delays a load past a later store";
}

TEST(ClassicLitmusTest, TsoOnlyStatesCountedAndReported) {
  GlobalStats().Reset();
  auto model = MakeSbLitmus(/*fenced=*/true);
  MemModelComparison cmp = CompareMemModels(*model, kMaxStates);
  PrintSummary(*model, cmp);
  ASSERT_TRUE(cmp.sc.ok) << cmp.sc.violation;
  ASSERT_TRUE(cmp.tso.ok) << cmp.tso.violation;
  // Even fenced, the pre-fence buffered store is a state SC cannot reach.
  EXPECT_GT(cmp.tso_only_states, 0u);
  EXPECT_GE(cmp.tso.states_explored, cmp.sc.states_explored);
  EXPECT_GE(GlobalStats().Total(Counter::kLitmusTsoOnlyStates), cmp.tso_only_states);
}

// --- Production primitives, as written: must pass under TSO ------------------

class AsWrittenLitmusTest : public ::testing::Test {
 protected:
  void ExpectPassesBothModels(MemProgModel& model) {
    MemModelComparison cmp = CompareMemModels(model, kMaxStates);
    PrintSummary(model, cmp);
    EXPECT_TRUE(cmp.sc.ok) << model.name() << " under SC: " << cmp.sc.violation
                           << cmp.sc.deadlock_state;
    EXPECT_TRUE(cmp.tso.ok) << model.name() << " under TSO: " << cmp.tso.violation
                            << cmp.tso.deadlock_state;
    // The store buffer only ever ADDS interleavings.
    EXPECT_GE(cmp.tso.states_explored, cmp.sc.states_explored) << model.name();
    EXPECT_GT(cmp.sc.final_states, 0u) << model.name();
    EXPECT_GT(cmp.tso.final_states, 0u) << model.name();
  }
};

TEST_F(AsWrittenLitmusTest, SeqCountPublish) {
  auto model = MakeSeqCountLitmus(SeqCountVariant::kAsWritten);
  ExpectPassesBothModels(*model);
}

// CnaLock's primary-queue handoff (cna_lock.cc Lock/Unlock), which is MCS.
TEST_F(AsWrittenLitmusTest, McsHandoff) {
  auto model = MakeMcsHandoffLitmus(McsVariant::kAsWritten);
  ExpectPassesBothModels(*model);
}

TEST_F(AsWrittenLitmusTest, LatrGatherTick) {
  auto model = MakeLatrLitmus(LatrVariant::kAsWritten);
  ExpectPassesBothModels(*model);
}

TEST_F(AsWrittenLitmusTest, RingPublish) {
  auto model = MakeRingPublishLitmus(RingVariant::kAsWritten);
  ExpectPassesBothModels(*model);
}

TEST_F(AsWrittenLitmusTest, PrezeroPublish) {
  auto model = MakePrezeroLitmus(PrezeroVariant::kAsWritten);
  ExpectPassesBothModels(*model);
}

TEST_F(AsWrittenLitmusTest, BravoRevokeFenced) {
  auto model = MakeBravoRevokeLitmus(BravoVariant::kFenced);
  ExpectPassesBothModels(*model);
}

TEST_F(AsWrittenLitmusTest, CnaHandoffFenced) {
  auto model = MakeCnaHandoffLitmus(CnaVariant::kFenced);
  ExpectPassesBothModels(*model);
}

// --- Broken variants: the checker's teeth ------------------------------------
//
// Each demoted variant must be caught. All but Bravo are SC-reachable (the
// missing ingredient is atomicity or program order, not the store buffer);
// Bravo's is the TSO-only one.

TEST(BrokenVariantLitmusTest, SeqCountNonAtomicWriterIncrementTornRead) {
  auto model = MakeSeqCountLitmus(SeqCountVariant::kNonAtomicWriterIncrement);
  ModelCheckResult sc = RunUnder(*model, MemModel::kSC);
  EXPECT_FALSE(sc.ok) << "two load;add;store writers must produce a validated torn read";
  EXPECT_NE(sc.violation.find("torn"), std::string::npos) << sc.violation;
  EXPECT_FALSE(RunUnder(*model, MemModel::kTSO).ok);
}

// CnaLock's primary queue with Lock's tail exchange split into a load and a
// store.
TEST(BrokenVariantLitmusTest, McsNonAtomicTailSwapMutualExclusionLost) {
  auto model = MakeMcsHandoffLitmus(McsVariant::kNonAtomicTailSwap);
  ModelCheckResult sc = RunUnder(*model, MemModel::kSC);
  EXPECT_FALSE(sc.ok) << "load-then-store tail acquisition must admit both threads";
  EXPECT_FALSE(RunUnder(*model, MemModel::kTSO).ok);
}

TEST(BrokenVariantLitmusTest, LatrWithoutHasAckedReinvalidates) {
  auto model = MakeLatrLitmus(LatrVariant::kNoHasAckedCheck);
  ModelCheckResult sc = RunUnder(*model, MemModel::kSC);
  EXPECT_FALSE(sc.ok) << "a second tick must not flush an already-acked entry";
  EXPECT_NE(sc.violation.find("re-invalidated"), std::string::npos) << sc.violation;
  EXPECT_FALSE(RunUnder(*model, MemModel::kTSO).ok);
}

TEST(BrokenVariantLitmusTest, RingTailBeforeSlotTearsTheSqe) {
  auto model = MakeRingPublishLitmus(RingVariant::kTailBeforeSlot);
  EXPECT_FALSE(RunUnder(*model, MemModel::kSC).ok)
      << "advancing sq_tail before the slot write must expose a torn SQE";
  EXPECT_FALSE(RunUnder(*model, MemModel::kTSO).ok);
}

TEST(BrokenVariantLitmusTest, PrezeroFlagBeforeZeroHandsOutDirtyFrame) {
  auto model = MakePrezeroLitmus(PrezeroVariant::kFlagBeforeZero);
  EXPECT_FALSE(RunUnder(*model, MemModel::kSC).ok)
      << "raising `zeroed` before scrubbing must expose a dirty byte";
  EXPECT_FALSE(RunUnder(*model, MemModel::kTSO).ok);
}

// The production bug this PR fixes: without the StoreLoad fence, BRAVO's
// revocation is correct under SC but broken under TSO — exactly the class of
// bug the store-buffer mode exists to find.
TEST(BrokenVariantLitmusTest, BravoRevokeWithoutFenceFailsOnlyUnderTso) {
  auto model = MakeBravoRevokeLitmus(BravoVariant::kNoFence);
  EXPECT_TRUE(RunUnder(*model, MemModel::kSC).ok)
      << "the unfenced revocation is SC-correct — SC exploration must miss it";
  ModelCheckResult tso = RunUnder(*model, MemModel::kTSO);
  EXPECT_FALSE(tso.ok)
      << "the buffered rbias store must let a reader into the write section";
  EXPECT_NE(tso.violation.find("fast-path reader"), std::string::npos)
      << tso.violation;
}

// CNA's park/wake skip-notify is store-buffering on both sides: without the
// seq_cst fences the wakeup is lost only under TSO, never under SC — the same
// TSO-only class as the BRAVO revocation above.
TEST(BrokenVariantLitmusTest, CnaHandoffWithoutFenceFailsOnlyUnderTso) {
  auto model = MakeCnaHandoffLitmus(CnaVariant::kNoFence);
  EXPECT_TRUE(RunUnder(*model, MemModel::kSC).ok)
      << "the unfenced park/wake is SC-correct — SC exploration must miss it";
  ModelCheckResult tso = RunUnder(*model, MemModel::kTSO);
  EXPECT_FALSE(tso.ok)
      << "buffered parked/grant stores must let the notify be skipped";
  EXPECT_NE(tso.violation.find("lost wakeup"), std::string::npos)
      << tso.violation;
}

}  // namespace
}  // namespace cortenmm
