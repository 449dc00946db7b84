#include "dpc/assembler.h"

#include <gtest/gtest.h>

#include "bem/tag_codec.h"

namespace dynaprox::dpc {
namespace {

TEST(AssemblerTest, SetStoresAndInlinesContent) {
  FragmentStore store(4);
  std::string wire = "A";
  bem::TagCodec::AppendSet(1, "frag", wire);
  wire += "B";
  Result<AssembledPage> page = AssemblePage(wire, store);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Text(), "AfragB");
  EXPECT_EQ(page->progress.set_count, 1u);
  EXPECT_EQ(page->progress.get_count, 0u);
  EXPECT_EQ(**store.Get(1), "frag");
}

TEST(AssemblerTest, GetSplicesStoredContent) {
  FragmentStore store(4);
  ASSERT_TRUE(store.Set(2, "cached!").ok());
  std::string wire = "[";
  bem::TagCodec::AppendGet(2, wire);
  wire += "]";
  Result<AssembledPage> page = AssemblePage(wire, store);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Text(), "[cached!]");
  EXPECT_EQ(page->progress.get_count, 1u);
}

TEST(AssemblerTest, SetThenGetWithinOneTemplate) {
  // First request on a page: fragment arrives as SET; a later GET in the
  // same template (unusual but legal) sees the stored value.
  FragmentStore store(4);
  std::string wire;
  bem::TagCodec::AppendSet(0, "x", wire);
  bem::TagCodec::AppendGet(0, wire);
  Result<AssembledPage> page = AssemblePage(wire, store);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Text(), "xx");
}

TEST(AssemblerTest, MissingFragmentIsNotFound) {
  // No miss resolver: a cold-cache GET fails the page instead of leaving
  // a hole in it.
  FragmentStore store(4);
  std::string wire = "a";
  bem::TagCodec::AppendGet(3, wire);
  wire += "b";
  Result<AssembledPage> page = AssemblePage(wire, store);
  EXPECT_TRUE(page.status().IsNotFound()) << page.status().ToString();
}

TEST(AssemblerTest, KeyOfAnotherGenerationIsAMiss) {
  // Key 50 in a 2-slot store is slot 0, generation 25: the slot's key 0
  // occupant must not be spliced for it.
  FragmentStore store(2);
  ASSERT_TRUE(store.Set(0, "generation zero").ok());
  std::string wire;
  bem::TagCodec::AppendGet(50, wire);
  Result<AssembledPage> page = AssemblePage(wire, store);
  EXPECT_FALSE(page.ok());
  EXPECT_TRUE(page.status().IsNotFound());
}

TEST(AssemblerTest, CorruptTemplateIsError) {
  FragmentStore store(2);
  EXPECT_TRUE(AssemblePage("\x02", store).status().IsCorruption());
}

TEST(AssemblerTest, OverwritesSlotOnRepeatedSet) {
  FragmentStore store(2);
  std::string first;
  bem::TagCodec::AppendSet(0, "v1", first);
  ASSERT_TRUE(AssemblePage(first, store).ok());
  std::string second;
  bem::TagCodec::AppendSet(0, "v2", second);
  ASSERT_TRUE(AssemblePage(second, store).ok());
  EXPECT_EQ(**store.Get(0), "v2");
}

TEST(AssemblerTest, RealisticPageCycle) {
  // Simulates two requests for the same page: all SETs first, all GETs
  // second; both assemble to identical output.
  FragmentStore store(8);
  const std::string navbar = "<nav>home</nav>";
  const std::string body = "<main>catalog</main>";

  std::string first = "<html>";
  bem::TagCodec::AppendSet(0, navbar, first);
  bem::TagCodec::AppendSet(1, body, first);
  first += "</html>";

  std::string second = "<html>";
  bem::TagCodec::AppendGet(0, second);
  bem::TagCodec::AppendGet(1, second);
  second += "</html>";

  Result<AssembledPage> p1 = AssemblePage(first, store);
  Result<AssembledPage> p2 = AssemblePage(second, store);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1->Text(), p2->Text());
  EXPECT_EQ(p1->Text(), "<html>" + navbar + body + "</html>");
  // The GET template is much smaller than the SET template: that's the
  // bandwidth saving.
  EXPECT_LT(second.size(), first.size());
}

TEST(AssemblerTest, FragmentBodiesAreStoredExactlyOnce) {
  FragmentStore store(4);
  std::string first;
  bem::TagCodec::AppendSet(0, "payload", first);
  Result<AssembledPage> set_page = AssemblePage(first, store);
  ASSERT_TRUE(set_page.ok());

  // The SET page's chain and the store slot alias one allocation.
  Result<FragmentRef> stored = store.Get(0);
  ASSERT_TRUE(stored.ok());
  ASSERT_EQ(set_page->body.slice_count(), 1u);
  EXPECT_EQ(set_page->body.slices()[0].data, (*stored)->data());

  // Every later GET splices that same allocation — never a copy.
  std::string second;
  bem::TagCodec::AppendGet(0, second);
  Result<AssembledPage> get_page = AssemblePage(second, store);
  ASSERT_TRUE(get_page.ok());
  ASSERT_EQ(get_page->body.slice_count(), 1u);
  EXPECT_EQ(get_page->body.slices()[0].data, (*stored)->data());
}

TEST(AssemblerTest, CopyAccountingSeparatesSetsFromSplices) {
  FragmentStore store(4);
  ASSERT_TRUE(store.Set(1, "cached-frag").ok());
  std::string wire = "lit:";
  bem::TagCodec::AppendSet(0, "fresh", wire);
  bem::TagCodec::AppendGet(1, wire);
  Result<AssembledPage> page = AssemblePage(wire, store);
  ASSERT_TRUE(page.ok());
  // Only the SET body is materialized; literals and GETs are referenced.
  EXPECT_EQ(page->progress.bytes_copied, 5u);  // "fresh"
  // "lit:" + "cached-frag"
  EXPECT_EQ(page->progress.bytes_referenced, 4u + 11u);
}

TEST(AssemblerTest, PageSurvivesStoreEviction) {
  FragmentStore store(4);
  ASSERT_TRUE(store.Set(0, "original").ok());
  std::string wire;
  bem::TagCodec::AppendGet(0, wire);
  Result<AssembledPage> page = AssemblePage(wire, store);
  ASSERT_TRUE(page.ok());
  // Replacing the slot drops the store's reference; the page's chain still
  // owns the old buffer.
  ASSERT_TRUE(store.Set(0, "replacement").ok());
  EXPECT_EQ(page->Text(), "original");
}

TEST(AssemblerTest, LiteralsAliasTheWireBuffer) {
  FragmentStore store(4);
  common::Buffer wire = common::MakeBuffer("just literals");
  Result<AssembledPage> page = AssemblePage(wire, store);
  ASSERT_TRUE(page.ok());
  ASSERT_EQ(page->body.slice_count(), 1u);
  EXPECT_EQ(page->body.slices()[0].data, wire->data());
  EXPECT_EQ(page->progress.bytes_referenced, wire->size());
  EXPECT_EQ(page->progress.bytes_copied, 0u);
}

}  // namespace
}  // namespace dynaprox::dpc
