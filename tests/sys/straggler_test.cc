#include "sys/straggler.h"

#include <gtest/gtest.h>

namespace fedadmm {
namespace {

ClientTiming Timing(double download, double compute, double upload) {
  ClientTiming t;
  t.download_seconds = download;
  t.compute_seconds = compute;
  t.upload_seconds = upload;
  return t;
}

TEST(WaitForAllTest, AdmitsEverythingAndWaitsForSlowest) {
  WaitForAllPolicy policy;
  const StragglerDecision fast = policy.Judge(Timing(0.1, 1.0, 0.1));
  const StragglerDecision slow = policy.Judge(Timing(0.1, 50.0, 0.1));
  EXPECT_EQ(fast.fate, ClientFate::kAdmitted);
  EXPECT_EQ(slow.fate, ClientFate::kAdmitted);
  EXPECT_DOUBLE_EQ(slow.work_fraction, 1.0);
  EXPECT_DOUBLE_EQ(slow.finish_seconds, 50.2);
}

TEST(DeadlineDropTest, LateClientsAreDropped) {
  DeadlineDropPolicy policy(/*deadline_seconds=*/5.0);
  const StragglerDecision in_time = policy.Judge(Timing(0.5, 4.0, 0.5));
  EXPECT_EQ(in_time.fate, ClientFate::kAdmitted);
  EXPECT_DOUBLE_EQ(in_time.finish_seconds, 5.0);

  const StragglerDecision late = policy.Judge(Timing(0.5, 10.0, 0.5));
  EXPECT_EQ(late.fate, ClientFate::kDropped);
  // The server still waits out the deadline for the client it then drops.
  EXPECT_DOUBLE_EQ(late.finish_seconds, 5.0);
}

TEST(DeadlineDropTest, RoundLastsUntilLastTrackedClient) {
  DeadlineDropPolicy policy(5.0);
  // The server tracks each client until its finish_seconds; a sync round
  // ends at the latest of them.
  const StragglerDecision fast = policy.Judge(Timing(0.0, 1.0, 0.0));
  EXPECT_DOUBLE_EQ(fast.finish_seconds, 1.0);
  const StragglerDecision late = policy.Judge(Timing(0.0, 9.0, 0.0));
  EXPECT_DOUBLE_EQ(late.finish_seconds, 5.0);
}

TEST(DeadlineAdmitPartialTest, InTimeClientIsUntouched) {
  DeadlineAdmitPartialPolicy policy(5.0);
  const StragglerDecision d = policy.Judge(Timing(0.5, 2.0, 0.5));
  EXPECT_EQ(d.fate, ClientFate::kAdmitted);
  EXPECT_DOUBLE_EQ(d.work_fraction, 1.0);
  EXPECT_DOUBLE_EQ(d.finish_seconds, 3.0);
}

TEST(DeadlineAdmitPartialTest, StragglerKeepsTheFractionThatFit) {
  DeadlineAdmitPartialPolicy policy(5.0);
  // Transfers take 1s; 4s of compute budget remain out of 8s needed.
  const StragglerDecision d = policy.Judge(Timing(0.5, 8.0, 0.5));
  EXPECT_EQ(d.fate, ClientFate::kAdmittedPartial);
  EXPECT_DOUBLE_EQ(d.work_fraction, 0.5);
  EXPECT_DOUBLE_EQ(d.finish_seconds, 5.0);
}

TEST(DeadlineAdmitPartialTest, TransferBoundClientIsDropped) {
  DeadlineAdmitPartialPolicy policy(5.0);
  // Even with zero compute admitted the transfers alone overrun.
  const StragglerDecision d = policy.Judge(Timing(3.0, 8.0, 3.0));
  EXPECT_EQ(d.fate, ClientFate::kDropped);
  EXPECT_DOUBLE_EQ(d.finish_seconds, 5.0);
}

TEST(DownloadFractionTest, CompletedDownloadBillsFullEvenWhenDropped) {
  DeadlineDropPolicy policy(5.0);
  // Download (1s) finished well before the 5s cut-off; compute overran.
  const StragglerDecision d = policy.Judge(Timing(1.0, 20.0, 1.0));
  EXPECT_EQ(d.fate, ClientFate::kDropped);
  EXPECT_DOUBLE_EQ(d.download_fraction, 1.0);
}

TEST(DownloadFractionTest, MidDownloadDropBillsReceivedShare) {
  DeadlineDropPolicy policy(5.0);
  // The broadcast alone needs 20s; 5s of it fit — 25% received.
  const StragglerDecision d = policy.Judge(Timing(20.0, 1.0, 1.0));
  EXPECT_EQ(d.fate, ClientFate::kDropped);
  EXPECT_DOUBLE_EQ(d.download_fraction, 0.25);
}

TEST(DownloadFractionTest, AdmitPartialDropAlsoReportsFraction) {
  DeadlineAdmitPartialPolicy policy(5.0);
  const StragglerDecision d = policy.Judge(Timing(10.0, 8.0, 3.0));
  EXPECT_EQ(d.fate, ClientFate::kDropped);
  EXPECT_DOUBLE_EQ(d.download_fraction, 0.5);
}

TEST(DownloadFractionTest, AdmittedClientsAlwaysReportFull) {
  WaitForAllPolicy wait;
  DeadlineAdmitPartialPolicy partial(5.0);
  EXPECT_DOUBLE_EQ(wait.Judge(Timing(9.0, 9.0, 9.0)).download_fraction, 1.0);
  EXPECT_DOUBLE_EQ(partial.Judge(Timing(0.5, 8.0, 0.5)).download_fraction,
                   1.0);
}

TEST(DeadlineAdmitPartialTest, AdmitsStrictlyMoreThanDrop) {
  // The differentiator the bench exercises: identical timings, different
  // policies — partial admission salvages what drop throws away.
  const ClientTiming straggler = Timing(0.5, 8.0, 0.5);
  DeadlineDropPolicy drop(5.0);
  DeadlineAdmitPartialPolicy partial(5.0);
  EXPECT_EQ(drop.Judge(straggler).fate, ClientFate::kDropped);
  EXPECT_EQ(partial.Judge(straggler).fate, ClientFate::kAdmittedPartial);
}

}  // namespace
}  // namespace fedadmm
