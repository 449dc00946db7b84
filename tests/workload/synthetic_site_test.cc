#include "workload/synthetic_site.h"

#include <gtest/gtest.h>

#include "appserver/origin_server.h"
#include "common/clock.h"
#include "dpc/assembler.h"
#include "dpc/fragment_store.h"
#include "workload/request_stream.h"

namespace dynaprox::workload {
namespace {

analytical::ModelParams SmallParams() {
  analytical::ModelParams params;
  params.num_pages = 4;
  params.fragments_per_page = 3;
  params.fragment_size = 200;
  params.cacheability = 2.0 / 3.0;  // Exactly 2 of 3 fragments.
  params.hit_ratio = 1.0;           // Deterministic: never bump versions.
  params.header_size = 0;
  return params;
}

class SyntheticSiteTest : public ::testing::Test {
 protected:
  void Build(const analytical::ModelParams& params, bool with_bem) {
    site_ = std::make_unique<SyntheticSite>(params, 99, &repository_,
                                            &registry_);
    if (with_bem) {
      bem::BemOptions options;
      options.capacity = 64;
      options.clock = &clock_;
      monitor_ = *bem::BackEndMonitor::Create(options);
    }
    origin_ = std::make_unique<appserver::OriginServer>(
        &registry_, &repository_, monitor_.get());
  }

  http::Response Fetch(int page) {
    RequestStream stream(site_->num_pages(), 1.0, 1);
    return origin_->Handle(stream.ForPage(page));
  }

  SimClock clock_;
  storage::ContentRepository repository_;
  appserver::ScriptRegistry registry_;
  std::unique_ptr<SyntheticSite> site_;
  std::unique_ptr<bem::BackEndMonitor> monitor_;
  std::unique_ptr<appserver::OriginServer> origin_;
};

TEST_F(SyntheticSiteTest, BaselinePageHasExactSize) {
  analytical::ModelParams params = SmallParams();
  Build(params, /*with_bem=*/false);
  http::Response response = Fetch(0);
  ASSERT_EQ(response.status_code, 200);
  // Body = fragments only, each exactly fragment_size bytes.
  EXPECT_EQ(response.body.size(),
            static_cast<size_t>(params.fragments_per_page *
                                params.fragment_size));
}

TEST_F(SyntheticSiteTest, AllPagesServeAndDiffer) {
  Build(SmallParams(), false);
  std::set<std::string> bodies;
  for (int page = 0; page < site_->num_pages(); ++page) {
    http::Response response = Fetch(page);
    ASSERT_EQ(response.status_code, 200);
    bodies.insert(response.body);
  }
  EXPECT_EQ(bodies.size(), static_cast<size_t>(site_->num_pages()));
}

TEST_F(SyntheticSiteTest, UnknownPageIs404) {
  Build(SmallParams(), false);
  http::Response response = Fetch(99);
  EXPECT_EQ(response.status_code, 404);
  http::Request no_id;
  no_id.target = "/page";
  EXPECT_EQ(origin_->Handle(no_id).status_code, 404);
}

TEST_F(SyntheticSiteTest, TemplateAssemblesToBaselinePage) {
  analytical::ModelParams params = SmallParams();
  Build(params, /*with_bem=*/true);
  http::Response templated = Fetch(1);
  ASSERT_EQ(templated.status_code, 200);
  dpc::FragmentStore store(monitor_->capacity());
  Result<dpc::AssembledPage> page =
      dpc::AssemblePage(templated.body, store);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(page->body.size(),
            static_cast<size_t>(params.fragments_per_page *
                                params.fragment_size));
  EXPECT_EQ(page->progress.set_count, 2u);  // Two cacheable fragments.
}

TEST_F(SyntheticSiteTest, SecondRequestUsesGets) {
  Build(SmallParams(), true);
  http::Response first = Fetch(1);
  http::Response second = Fetch(1);
  // GET templates are dramatically smaller.
  EXPECT_LT(second.body.size(), first.body.size());
  dpc::FragmentStore store(monitor_->capacity());
  ASSERT_TRUE(dpc::AssemblePage(first.body, store).ok());
  Result<dpc::AssembledPage> assembled =
      dpc::AssemblePage(second.body, store);
  ASSERT_TRUE(assembled.ok());
  EXPECT_EQ(assembled->progress.get_count, 2u);
  EXPECT_EQ(assembled->progress.set_count, 0u);
  EXPECT_EQ(site_->version_bumps(), 0u);  // h = 1.
}

TEST_F(SyntheticSiteTest, ZeroHitRatioAlwaysMisses) {
  analytical::ModelParams params = SmallParams();
  params.hit_ratio = 0.0;
  Build(params, true);
  Fetch(1);
  Fetch(1);
  Fetch(1);
  EXPECT_EQ(monitor_->stats().hits, 0u);
  EXPECT_EQ(site_->version_bumps(), site_->fragment_accesses());
}

TEST_F(SyntheticSiteTest, IntermediateHitRatioConverges) {
  analytical::ModelParams params = SmallParams();
  params.hit_ratio = 0.7;
  params.num_pages = 2;
  Build(params, true);
  for (int i = 0; i < 2000; ++i) {
    Fetch(i % 2);
  }
  const bem::DirectoryStats& stats = monitor_->stats();
  double realized = static_cast<double>(stats.hits) /
                    static_cast<double>(stats.hits + stats.misses);
  EXPECT_NEAR(realized, 0.7, 0.05);
}

TEST_F(SyntheticSiteTest, SharedPoolWarmsAcrossPages) {
  analytical::ModelParams params = SmallParams();  // 4 pages x 3 frags.
  SyntheticSiteOptions options;
  options.fragment_pool = 3;  // Every page uses the same three slots.
  site_ = std::make_unique<SyntheticSite>(params, 99, &repository_,
                                          &registry_, options);
  EXPECT_EQ(site_->fragment_slots(), 3);
  bem::BemOptions bem_options;
  bem_options.capacity = 64;
  bem_options.clock = &clock_;
  monitor_ = *bem::BackEndMonitor::Create(bem_options);
  origin_ = std::make_unique<appserver::OriginServer>(
      &registry_, &repository_, monitor_.get());

  // Page 0 warms the pool; page 1 then hits on its cacheable positions.
  Fetch(0);
  uint64_t misses_after_first = monitor_->stats().misses;
  Fetch(1);
  EXPECT_EQ(monitor_->stats().misses, misses_after_first);
  EXPECT_GE(monitor_->stats().hits, 2u);
  // With full sharing, every page's body is identical.
  EXPECT_EQ(Fetch(0).body, Fetch(3).body);
}

TEST_F(SyntheticSiteTest, PoolLargerThanPositionsBehavesLikePerPage) {
  analytical::ModelParams params = SmallParams();
  SyntheticSiteOptions options;
  options.fragment_pool = 1000;  // Clamped to total positions.
  site_ = std::make_unique<SyntheticSite>(params, 99, &repository_,
                                          &registry_, options);
  EXPECT_EQ(site_->fragment_slots(),
            params.num_pages * params.fragments_per_page);
}

TEST_F(SyntheticSiteTest, TinyFragmentsStillExactSize) {
  analytical::ModelParams params = SmallParams();
  params.fragment_size = 8;  // Below the HTML frame size.
  Build(params, false);
  http::Response response = Fetch(0);
  EXPECT_EQ(response.body.size(), static_cast<size_t>(3 * 8));
}

}  // namespace
}  // namespace dynaprox::workload
