#include "dpc/proxy.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "bem/protocol.h"
#include "bem/tag_codec.h"
#include "common/strings.h"

namespace dynaprox::dpc {
namespace {

// An origin stub that serves SETs on first sight of a key and GETs after,
// mimicking the BEM contract, including the refresh protocol.
class FakeOrigin {
 public:
  http::Response Handle(const http::Request& request) {
    ++requests_;
    if (auto refresh = request.headers.Get(bem::kRefreshHeader);
        refresh.has_value()) {
      for (std::string_view key_hex : StrSplit(*refresh, ',')) {
        known_.erase(static_cast<bem::DpcKey>(*ParseHex(key_hex)));
      }
    }
    std::string body = "<page>";
    for (bem::DpcKey key : {bem::DpcKey{0}, bem::DpcKey{1}}) {
      if (known_.count(key)) {
        bem::TagCodec::AppendGet(key, body);
      } else {
        bem::TagCodec::AppendSet(key, "frag" + std::to_string(key), body);
        known_.insert(key);
      }
    }
    body += "</page>";
    http::Response response = http::Response::MakeOk(std::move(body));
    response.headers.Set(bem::kTemplateHeader, "1");
    return response;
  }

  net::Handler AsHandler() {
    return [this](const http::Request& r) { return Handle(r); };
  }

  int requests() const { return requests_; }

 private:
  std::set<bem::DpcKey> known_;
  int requests_ = 0;
};

ProxyOptions SmallProxy() {
  ProxyOptions options;
  options.capacity = 8;
  return options;
}

TEST(DpcProxyTest, AssemblesTemplateResponses) {
  FakeOrigin origin;
  net::DirectTransport upstream(origin.AsHandler());
  DpcProxy proxy(&upstream, SmallProxy());

  http::Request request;
  http::Response first = proxy.Handle(request);
  EXPECT_EQ(first.status_code, 200);
  EXPECT_EQ(first.BodyText(), "<page>frag0frag1</page>");
  EXPECT_FALSE(first.headers.Has(bem::kTemplateHeader));

  http::Response second = proxy.Handle(request);
  EXPECT_EQ(second.BodyText(), first.BodyText());
  EXPECT_EQ(proxy.stats().assembled, 2u);
  EXPECT_EQ(proxy.stats().passthrough, 0u);
}

TEST(DpcProxyTest, SecondResponseTravelsSmaller) {
  FakeOrigin origin;
  net::DirectTransport upstream(origin.AsHandler());
  DpcProxy proxy(&upstream, SmallProxy());
  http::Request request;
  proxy.Handle(request);
  uint64_t after_first = proxy.stats().bytes_from_upstream;
  proxy.Handle(request);
  uint64_t second_transfer = proxy.stats().bytes_from_upstream - after_first;
  EXPECT_LT(second_transfer, after_first);
  // Clients always receive the full page.
  EXPECT_EQ(proxy.stats().bytes_to_clients,
            2 * std::string("<page>frag0frag1</page>").size());
}

TEST(DpcProxyTest, NonTemplateResponsesPassThrough) {
  net::DirectTransport upstream([](const http::Request&) {
    return http::Response::MakeOk("static file");
  });
  DpcProxy proxy(&upstream, SmallProxy());
  http::Response response = proxy.Handle(http::Request{});
  EXPECT_EQ(response.body, "static file");
  EXPECT_EQ(proxy.stats().passthrough, 1u);
  EXPECT_EQ(proxy.stats().assembled, 0u);
}

TEST(DpcProxyTest, ColdCacheRecoveryViaRefreshHeader) {
  FakeOrigin origin;
  net::DirectTransport upstream(origin.AsHandler());
  DpcProxy proxy(&upstream, SmallProxy());
  http::Request request;
  proxy.Handle(request);   // Fragments now cached, origin will emit GETs.
  proxy.ClearCache();      // Simulated DPC restart.
  http::Response response = proxy.Handle(request);
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(response.BodyText(), "<page>frag0frag1</page>");
  EXPECT_EQ(proxy.stats().recoveries, 1u);
  // One original + one refresh round trip for the recovered request.
  EXPECT_EQ(origin.requests(), 3);
}

TEST(DpcProxyTest, UnrecoverableMissYields502) {
  // Origin always emits GETs for a key it never SETs.
  net::DirectTransport upstream([](const http::Request&) {
    std::string body;
    bem::TagCodec::AppendGet(5, body);
    http::Response response = http::Response::MakeOk(std::move(body));
    response.headers.Set(bem::kTemplateHeader, "1");
    return response;
  });
  DpcProxy proxy(&upstream, SmallProxy());
  http::Response response = proxy.Handle(http::Request{});
  EXPECT_EQ(response.status_code, 502);
}

// An origin that answers with GET 3 (slot 3 of 8, generation 0) and
// answers each refresh with `refreshed`, a template of its own.
net::Handler GetThreeThenRefreshWith(std::string refreshed) {
  return [refreshed](const http::Request& request) {
    std::string body = "<";
    if (request.headers.Has(bem::kRefreshHeader)) {
      body += refreshed;
    } else {
      bem::TagCodec::AppendGet(3, body);
    }
    body += ">";
    http::Response response = http::Response::MakeOk(std::move(body));
    response.headers.Set(bem::kTemplateHeader, "1");
    return response;
  };
}

TEST(DpcProxyTest, RefreshFillsAHoleWithItsOwnSetIntoTheSameSlot) {
  // The refresh re-renders the fragment in the pinned slot under the
  // slot's next key, 3 + 8: the hole for key 3 takes that SET.
  std::string refreshed;
  bem::TagCodec::AppendSet(11, "fresh", refreshed);
  net::DirectTransport upstream(GetThreeThenRefreshWith(refreshed));
  DpcProxy proxy(&upstream, SmallProxy());
  http::Response response = proxy.Handle(http::Request{});
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(response.BodyText(), "<fresh>");
  EXPECT_EQ(proxy.stats().recoveries, 1u);
}

TEST(DpcProxyTest, HoleNeverTakesAnotherSlotOrAnotherGeneration) {
  // The store holds slot 3's generation 2 (key 19), and the refresh only
  // SETs slot 4: neither is key 3, so the hole stays open and the page
  // is refused rather than spliced with either fragment.
  std::string refreshed;
  bem::TagCodec::AppendSet(4, "other slot", refreshed);
  net::DirectTransport upstream(GetThreeThenRefreshWith(refreshed));
  DpcProxy proxy(&upstream, SmallProxy());
  ASSERT_TRUE(proxy.mutable_store().Set(19, "other generation").ok());
  http::Response response = proxy.Handle(http::Request{});
  EXPECT_EQ(response.status_code, 502);
  EXPECT_EQ(response.BodyText().find("other"), std::string::npos);
}

TEST(DpcProxyTest, CorruptTemplateYields502) {
  net::DirectTransport upstream([](const http::Request&) {
    http::Response response = http::Response::MakeOk("\x02" "broken");
    response.headers.Set(bem::kTemplateHeader, "1");
    return response;
  });
  DpcProxy proxy(&upstream, SmallProxy());
  http::Response response = proxy.Handle(http::Request{});
  EXPECT_EQ(response.status_code, 502);
  EXPECT_EQ(proxy.stats().template_errors, 1u);
}

TEST(DpcProxyTest, UpstreamFailureYields502) {
  class FailingTransport : public net::Transport {
   public:
    Result<net::StreamingResponse> RoundTripStreaming(
        const http::Request&) override {
      return Status::IoError("origin down");
    }
  };
  FailingTransport upstream;
  DpcProxy proxy(&upstream, SmallProxy());
  http::Response response = proxy.Handle(http::Request{});
  EXPECT_EQ(response.status_code, 502);
  EXPECT_EQ(proxy.stats().upstream_errors, 1u);
}

TEST(DpcProxyTest, OversizedTemplateRejected) {
  net::DirectTransport upstream([](const http::Request&) {
    std::string body;
    bem::TagCodec::AppendSet(0, std::string(10'000, 'x'), body);
    http::Response response = http::Response::MakeOk(std::move(body));
    response.headers.Set(bem::kTemplateHeader, "1");
    return response;
  });
  ProxyOptions options = SmallProxy();
  options.max_template_bytes = 1000;
  DpcProxy proxy(&upstream, options);
  http::Response response = proxy.Handle(http::Request{});
  EXPECT_EQ(response.status_code, 502);
  EXPECT_EQ(proxy.stats().template_errors, 1u);
  // Raise the limit: same origin now acceptable.
  ProxyOptions relaxed = SmallProxy();
  relaxed.max_template_bytes = 100'000;
  DpcProxy relaxed_proxy(&upstream, relaxed);
  EXPECT_EQ(relaxed_proxy.Handle(http::Request{}).status_code, 200);
}

TEST(DpcProxyTest, DebugHeaderWhenEnabled) {
  FakeOrigin origin;
  net::DirectTransport upstream(origin.AsHandler());
  ProxyOptions options = SmallProxy();
  options.add_debug_header = true;
  DpcProxy proxy(&upstream, options);
  http::Response response = proxy.Handle(http::Request{});
  ASSERT_TRUE(response.headers.Has(kDebugHeader));
  EXPECT_EQ(*response.headers.Get(kDebugHeader), "sets=2;gets=0");
}

}  // namespace
}  // namespace dynaprox::dpc
