// Wire-protocol hostility tests: every way a dying worker can mangle
// its result frame must decode as kEmpty/kCorrupt/kTrailing - never as
// a trusted frame - and an intact frame must round-trip bit-exactly
// through a real pipe.
#include "robust/wire.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "robust/journal.h"

namespace powerlim::robust {
namespace {

std::string frame_bytes(char tag, const std::string& payload) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  EXPECT_TRUE(write_wire_frame(fds[1], tag, payload).ok());
  ::close(fds[1]);
  std::string bytes;
  EXPECT_TRUE(drain_fd(fds[0], &bytes));
  ::close(fds[0]);
  return bytes;
}

TEST(Wire, RoundTripsThroughPipe) {
  const std::string payload = "line one\nline two with \x01 binary\n";
  const std::string bytes = frame_bytes('R', payload);
  std::vector<WireFrame> frames;
  EXPECT_EQ(decode_wire_frames(bytes, &frames), WireDecode::kOk);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].tag, 'R');
  EXPECT_EQ(frames[0].payload, payload);
}

TEST(Wire, EmptyBufferIsEmptyNotCorrupt) {
  // A worker that died before writing anything is a crash, but the
  // *frame* verdict distinguishes "nothing" from "garbage".
  std::vector<WireFrame> frames;
  EXPECT_EQ(decode_wire_frames("", &frames), WireDecode::kEmpty);
}

TEST(Wire, TruncatedPayloadIsCorrupt) {
  const std::string bytes = frame_bytes('R', "a fairly long payload body");
  std::vector<WireFrame> frames;
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    EXPECT_EQ(decode_wire_frames(bytes.substr(0, cut), &frames),
              WireDecode::kCorrupt)
        << "cut at " << cut;
  }
}

TEST(Wire, BitFlipIsCorrupt) {
  std::string bytes = frame_bytes('R', "payload under checksum");
  bytes[bytes.size() - 3] ^= 0x20;
  std::vector<WireFrame> frames;
  EXPECT_EQ(decode_wire_frames(bytes, &frames), WireDecode::kCorrupt);
}

TEST(Wire, TrailingBytesAreFlagged) {
  const std::string bytes = frame_bytes('R', "payload") + "stray";
  std::vector<WireFrame> frames;
  EXPECT_EQ(decode_wire_frames(bytes, &frames), WireDecode::kTrailing);
}

TEST(Wire, ArbitraryGarbageIsCorrupt) {
  std::vector<WireFrame> frames;
  EXPECT_EQ(decode_wire_frames("not a frame at all\n", &frames),
            WireDecode::kCorrupt);
  EXPECT_EQ(decode_wire_frames("W R deadbeef notanumber\nxx", &frames),
            WireDecode::kCorrupt);
}

TEST(Wire, CarriesJournalEntryPayload) {
  // The payload contract with the pool: a worker ships exactly the
  // bytes the journal would append, so parallel journals store what
  // serial ones would.
  JournalEntry e;
  e.job_cap_watts = 123.456789;
  e.verdict = StatusCode::kOk;
  e.bound_seconds = 9.875;
  e.report_json = "{\"schema_version\":3}";
  const std::string bytes = frame_bytes('R', serialize_journal_entry(e));
  std::vector<WireFrame> frames;
  ASSERT_EQ(decode_wire_frames(bytes, &frames), WireDecode::kOk);
  ASSERT_EQ(frames.size(), 1u);
  JournalEntry back;
  ASSERT_TRUE(parse_journal_entry(frames[0].payload, &back));
  EXPECT_EQ(back.job_cap_watts, e.job_cap_watts);
  EXPECT_EQ(back.verdict, e.verdict);
  EXPECT_EQ(back.bound_seconds, e.bound_seconds);
  EXPECT_EQ(back.report_json, e.report_json);
}

}  // namespace
}  // namespace powerlim::robust
