#include "workload/trace.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "workload/request_stream.h"

namespace dynaprox::workload {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(TraceEntryTest, RequestRoundTrip) {
  http::Request request;
  request.method = "GET";
  request.target = "/page?id=3";
  request.headers.Add("Cookie", "theme=dark; sid=s42");
  TraceEntry entry = TraceEntry::FromRequest(request);
  EXPECT_EQ(entry.target, "/page?id=3");
  EXPECT_EQ(entry.session, "s42");
  http::Request rebuilt = entry.ToRequest();
  EXPECT_EQ(rebuilt.target, request.target);
  EXPECT_EQ(*rebuilt.headers.Get("Cookie"), "sid=s42");
}

TEST(TraceFileTest, SaveLoadRoundTrip) {
  std::vector<TraceEntry> entries = {
      {"GET", "/a", ""},
      {"GET", "/b?x=1", "s7"},
      {"POST", "/submit", ""},
  };
  std::string path = TempPath("trace_roundtrip.txt");
  ASSERT_TRUE(SaveTrace(path, entries).ok());
  Result<std::vector<TraceEntry>> loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_EQ((*loaded)[1].target, "/b?x=1");
  EXPECT_EQ((*loaded)[1].session, "s7");
  EXPECT_EQ((*loaded)[2].method, "POST");
  std::remove(path.c_str());
}

TEST(TraceFileTest, CommentsAndBlanksIgnored) {
  std::string path = TempPath("trace_comments.txt");
  {
    std::ofstream out(path);
    out << "# header\n\nGET /x\n   \nGET /y sid=s1\n";
  }
  Result<std::vector<TraceEntry>> loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  std::remove(path.c_str());
}

TEST(TraceFileTest, MalformedLinesRejected) {
  std::string path = TempPath("trace_bad.txt");
  {
    std::ofstream out(path);
    out << "GET\n";
  }
  EXPECT_TRUE(LoadTrace(path).status().IsCorruption());
  {
    std::ofstream out(path);
    out << "GET /x bogus=1\n";
  }
  EXPECT_TRUE(LoadTrace(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(TraceFileTest, MissingFileIsIoError) {
  EXPECT_EQ(LoadTrace("/nonexistent/dir/trace.txt").status().code(),
            StatusCode::kIoError);
}

TEST(TraceStreamTest, ReplaysInOrderThenExhausts) {
  TraceStream stream({{"GET", "/a", ""}, {"GET", "/b", ""}}, false);
  EXPECT_EQ(stream.Next()->target, "/a");
  EXPECT_EQ(stream.Next()->target, "/b");
  EXPECT_TRUE(stream.exhausted());
  EXPECT_FALSE(stream.Next().ok());
}

TEST(TraceStreamTest, LoopsWhenAsked) {
  TraceStream stream({{"GET", "/a", ""}}, true);
  for (int i = 0; i < 5; ++i) {
    Result<http::Request> request = stream.Next();
    ASSERT_TRUE(request.ok());
    EXPECT_EQ(request->target, "/a");
  }
}

TEST(TraceStreamTest, EmptyTraceFails) {
  TraceStream stream({}, true);
  EXPECT_FALSE(stream.Next().ok());
}

TEST(RecordReplayTest, EndToEnd) {
  // Record a small workload, save, load, replay: identical targets.
  std::vector<TraceEntry> recorded;
  RequestStream generator(5, 1.0, 3);
  for (int i = 0; i < 20; ++i) {
    recorded.push_back(TraceEntry::FromRequest(generator.Next()));
  }
  std::string path = TempPath("trace_e2e.txt");
  ASSERT_TRUE(SaveTrace(path, recorded).ok());
  Result<std::vector<TraceEntry>> loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok());
  TraceStream replay(*loaded, false);
  for (const TraceEntry& expected : recorded) {
    Result<http::Request> request = replay.Next();
    ASSERT_TRUE(request.ok());
    EXPECT_EQ(request->target, expected.target);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dynaprox::workload
