// Bookstore: the paper's e-commerce scenario over real TCP sockets.
//
// An origin site (catalog + personalization, Section 2's dynamic-layout
// example) runs behind a DPC reverse proxy, each on its own loopback TCP
// server. A registered user (Bob) and an anonymous visitor (Alice) request
// the same URL and receive different pages — the case that breaks
// URL-keyed page caches and that the DPC handles correctly.
//
// Run: ./bookstore

#include <cstdio>
#include <memory>

#include "appserver/origin_server.h"
#include "appserver/personalization.h"
#include "appserver/script_registry.h"
#include "appserver/session.h"
#include "bem/monitor.h"
#include "dpc/proxy.h"
#include "net/connection_pool.h"
#include "net/tcp.h"
#include "storage/table.h"
#include "storage/value.h"

using namespace dynaprox;

namespace {

void SeedCatalog(storage::ContentRepository& repository) {
  storage::Table* users = repository.GetOrCreateTable(appserver::kUsersTable);
  users->Upsert("bob",
                {{"name", storage::Value(std::string("Bob"))},
                 {"category", storage::Value(std::string("fiction"))},
                 {"layout", storage::Value(std::string(
                                "greeting,recommendations,catalog"))}});
  storage::Table* products =
      repository.GetOrCreateTable(appserver::kProductsTable);
  // The recommender filters by category on every cold fragment; index it.
  (void)products->CreateIndex("category");
  products->Upsert("b1",
                   {{"title", storage::Value(std::string("Dune"))},
                    {"category", storage::Value(std::string("fiction"))},
                    {"price", storage::Value(9.99)}});
  products->Upsert("b2",
                   {{"title", storage::Value(std::string("Hyperion"))},
                    {"category", storage::Value(std::string("fiction"))},
                    {"price", storage::Value(7.50)}});
  products->Upsert("b3",
                   {{"title", storage::Value(std::string("SICP"))},
                    {"category", storage::Value(std::string("tech"))},
                    {"price", storage::Value(39.99)}});
}

// The /store script. Layout is *dynamic*: a registered user's profile
// decides which fragments appear and in which order; anonymous visitors
// get the default. Fragments:
//   greeting         - per-user (cacheable, keyed by user)
//   recommendations  - per-category (cacheable, depends on products table)
//   catalog          - shared by everyone (cacheable)
Status StoreScript(appserver::SessionManager& sessions,
                   appserver::ScriptContext& ctx) {
  ctx.Emit("<html><body>");
  auto user = sessions.ResolveUser(ctx.request());

  appserver::UserProfile profile;
  if (user.has_value()) {
    auto loaded = appserver::LoadProfile(*ctx.repository(), *user);
    if (!loaded.ok()) return loaded.status();
    profile = *loaded;  // One profile object shared by all fragments
                        // below: the Section 3.2.2 interdependence that
                        // ESI-style factoring would have to recompute.
  } else {
    profile.layout = {"catalog"};
  }

  for (const std::string& section : profile.layout) {
    Status status;
    if (section == "greeting") {
      status = ctx.CacheableBlock(
          bem::FragmentId("greeting", {{"user", profile.user_id}}),
          [&](appserver::ScriptContext& block) {
            block.DeclareDependency(appserver::kUsersTable,
                                    profile.user_id);
            block.Emit("<h2>Hello, " + profile.display_name + "</h2>");
            return Status::Ok();
          });
    } else if (section == "recommendations") {
      status = ctx.CacheableBlock(
          bem::FragmentId("reco",
                          {{"cat", profile.preferred_category}}),
          [&](appserver::ScriptContext& block) {
            auto picks = appserver::RecommendProducts(*block.repository(),
                                                      profile, 5);
            if (!picks.ok()) return picks.status();
            block.DeclareDependency(appserver::kProductsTable);
            block.Emit("<h3>Recommended for you</h3><ul>");
            for (const appserver::ProductPick& pick : *picks) {
              char line[160];
              std::snprintf(line, sizeof(line), "<li>%s ($%.2f)</li>",
                            pick.title.c_str(), pick.price);
              block.Emit(line);
            }
            block.Emit("</ul>");
            return Status::Ok();
          });
    } else if (section == "catalog") {
      status = ctx.CacheableBlock(
          bem::FragmentId("catalog"),
          [](appserver::ScriptContext& block) {
            block.DeclareDependency(appserver::kProductsTable);
            block.Emit("<h3>Full catalog</h3><ol>");
            auto table =
                block.repository()->GetTable(appserver::kProductsTable);
            if (!table.ok()) return table.status();
            for (const auto& [key, row] : (*table)->Scan(nullptr)) {
              block.Emit("<li>" + storage::GetString(row, "title") +
                         "</li>");
            }
            block.Emit("</ol>");
            return Status::Ok();
          });
    }
    if (!status.ok()) return status;
  }
  ctx.Emit("</body></html>");
  return Status::Ok();
}

}  // namespace

int main() {
  storage::ContentRepository repository;
  SeedCatalog(repository);
  appserver::SessionManager sessions;

  appserver::ScriptRegistry registry;
  registry.RegisterOrReplace("/store",
                             [&](appserver::ScriptContext& ctx) {
                               return StoreScript(sessions, ctx);
                             });

  bem::BemOptions bem_options;
  bem_options.capacity = 256;
  auto monitor = *bem::BackEndMonitor::Create(bem_options);
  monitor->AttachRepository(&repository);
  appserver::OriginServer origin(&registry, &repository, monitor.get());

  // Origin on one TCP server...
  net::TcpServer origin_server(origin.AsHandler());
  if (!origin_server.Start().ok()) {
    std::printf("failed to start origin server\n");
    return 1;
  }
  // ...DPC reverse proxy on another, upstreaming over a connection pool:
  // a cold-cache recovery round trip must not wait on the connection the
  // template itself is still arriving on.
  net::PooledClientTransport to_origin("127.0.0.1", origin_server.port());
  dpc::ProxyOptions proxy_options;
  proxy_options.capacity = 256;
  dpc::DpcProxy proxy(&to_origin, proxy_options);
  net::TcpServer proxy_server(proxy.AsHandler());
  if (!proxy_server.Start().ok()) {
    std::printf("failed to start proxy server\n");
    return 1;
  }
  std::printf("origin on 127.0.0.1:%u, DPC reverse proxy on 127.0.0.1:%u\n",
              origin_server.port(), proxy_server.port());

  net::PooledClientTransport client("127.0.0.1", proxy_server.port());
  std::string bob_sid = sessions.Login("bob");

  auto fetch = [&](const std::string& label, const std::string& cookie) {
    http::Request request;
    request.target = "/store";
    if (!cookie.empty()) request.headers.Add("Cookie", "sid=" + cookie);
    auto response = client.RoundTrip(request);
    if (!response.ok()) {
      std::printf("%s: transport error %s\n", label.c_str(),
                  response.status().ToString().c_str());
      return std::string();
    }
    std::printf("%-18s -> %d, %4zuB, greeting=%s reco=%s\n", label.c_str(),
                response->status_code, response->body.size(),
                response->body.find("Hello, Bob") != std::string::npos
                    ? "yes"
                    : "no",
                response->body.find("Recommended") != std::string::npos
                    ? "yes"
                    : "no");
    return response->body;
  };

  std::printf("\n-- same URL, different visitors --\n");
  std::string bob_page = fetch("Bob (registered)", bob_sid);
  std::string alice_page = fetch("Alice (anonymous)", "");
  std::printf("pages differ: %s (a URL-keyed page cache would have served "
              "Bob's page to Alice)\n",
              bob_page != alice_page ? "yes" : "NO");

  std::printf("\n-- warm-cache requests --\n");
  fetch("Bob again", bob_sid);
  fetch("Alice again", "");
  std::printf("fragment directory: hits=%llu misses=%llu\n",
              static_cast<unsigned long long>(monitor->stats().hits),
              static_cast<unsigned long long>(monitor->stats().misses));

  std::printf("\n-- catalog update invalidates product fragments --\n");
  (*repository.GetTable(appserver::kProductsTable))
      ->Upsert("b4", {{"title", storage::Value(std::string(
                                    "Snow Crash"))},
                      {"category", storage::Value(std::string("fiction"))},
                      {"price", storage::Value(12.00)}});
  std::string updated = fetch("Bob after update", bob_sid);
  std::printf("new title visible: %s\n",
              updated.find("Snow Crash") != std::string::npos ? "yes"
                                                              : "NO");

  proxy_server.Stop();
  origin_server.Stop();
  return 0;
}
