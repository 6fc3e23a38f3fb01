// Website synthesis and corpus tests: generated HTML/CSS is well-formed and
// internally consistent, transforms preserve invariants, populations match
// their structural calibration targets, and profiles expose the features
// their paper stories need.
#include <gtest/gtest.h>

#include "browser/css.h"
#include "browser/html.h"
#include "web/corpus.h"
#include "web/profiles.h"
#include "web/site.h"
#include "web/transform.h"

namespace h2push::web {
namespace {

PagePlan tiny_plan() {
  PagePlan plan;
  plan.name = "tiny";
  plan.primary_host = "www.tiny.test";
  plan.html_size = 10 * 1024;
  plan.text_blocks = 8;
  plan.host_ip[plan.primary_host] = "10.0.0.1";
  ResourcePlan css;
  css.path = "/main.css";
  css.host = plan.primary_host;
  css.type = http::ResourceType::kCss;
  css.size = 6000;
  css.placement = ResourcePlan::Placement::kHead;
  plan.resources.push_back(css);
  ResourcePlan font;
  font.path = "/f.woff2";
  font.host = plan.primary_host;
  font.type = http::ResourceType::kFont;
  font.size = 9000;
  font.placement = ResourcePlan::Placement::kFromCss;
  font.css_parent = "/main.css";
  font.font_family = "ff";
  font.above_fold = true;
  plan.resources.push_back(font);
  ResourcePlan img;
  img.path = "/i.png";
  img.host = plan.primary_host;
  img.type = http::ResourceType::kImage;
  img.size = 4000;
  img.placement = ResourcePlan::Placement::kBodyEarly;
  img.above_fold = true;
  plan.resources.push_back(img);
  return plan;
}

TEST(BuildSite, HtmlSizeApproximatesTarget) {
  const auto site = build_site(tiny_plan());
  const auto* main = site.find(site.main_url);
  ASSERT_NE(main, nullptr);
  EXPECT_NEAR(static_cast<double>(main->body->size()), 10240.0, 1024.0);
}

TEST(BuildSite, EveryResourceIsServable) {
  const auto site = build_site(tiny_plan());
  for (const auto& r : site.plan.resources) {
    const auto* exchange = site.store->find(r.host, r.path);
    ASSERT_NE(exchange, nullptr) << r.path;
    EXPECT_EQ(exchange->body->size(), exchange->response.body_size);
    EXPECT_NEAR(static_cast<double>(exchange->body->size()),
                static_cast<double>(r.size), 64.0)
        << r.path;
  }
}

TEST(BuildSite, HtmlReferencesEveryMarkupResource) {
  const auto site = build_site(tiny_plan());
  const std::string& html = *site.find(site.main_url)->body;
  EXPECT_NE(html.find("/main.css"), std::string::npos);
  EXPECT_NE(html.find("/i.png"), std::string::npos);
  // The font is hidden inside the CSS, not the HTML.
  EXPECT_EQ(html.find("/f.woff2"), std::string::npos);
}

TEST(BuildSite, CssContainsFontFaceForChild) {
  const auto site = build_site(tiny_plan());
  const auto* css = site.store->find("www.tiny.test", "/main.css");
  ASSERT_NE(css, nullptr);
  const auto sheet = browser::parse_css(*css->body);
  ASSERT_EQ(sheet.font_faces.size(), 1u);
  EXPECT_EQ(sheet.font_faces[0].family, "ff");
  EXPECT_NE(sheet.font_faces[0].url.find("/f.woff2"), std::string::npos);
}

TEST(BuildSite, GeneratedHtmlTokenizesCleanly) {
  const auto site = build_site(tiny_plan());
  const std::string& html = *site.find(site.main_url)->body;
  browser::HtmlTokenizer tok(&html);
  int tags = 0;
  while (auto t = tok.next()) {
    if (t->kind == browser::HtmlToken::Kind::kStartTag) ++tags;
  }
  EXPECT_GT(tags, 10);
  EXPECT_TRUE(tok.at_end());  // no stuck partial tag at EOF
}

TEST(BuildSite, DeterministicForSameSeed) {
  const auto a = build_site(tiny_plan());
  const auto b = build_site(tiny_plan());
  EXPECT_EQ(*a.find(a.main_url)->body, *b.find(b.main_url)->body);
}

TEST(BuildSite, BodyOverridesApply) {
  auto plan = tiny_plan();
  std::map<std::string, std::string> overrides;
  overrides["https://www.tiny.test/main.css"] = ".x { margin: 0; }";
  const auto site = build_site(plan, overrides);
  EXPECT_EQ(*site.store->find("www.tiny.test", "/main.css")->body,
            ".x { margin: 0; }");
}

TEST(BuildSite, PreloadFontsEmitsLinks) {
  auto plan = tiny_plan();
  plan.preload_fonts = true;
  const auto site = build_site(plan);
  const std::string& html = *site.find(site.main_url)->body;
  EXPECT_NE(html.find("rel=\"preload\""), std::string::npos);
  EXPECT_NE(html.find("/f.woff2"), std::string::npos);
}

// --------------------------------------------------------------- transforms

TEST(Transform, RelocateSingleServerKeepsAllResources) {
  auto plan = tiny_plan();
  ResourcePlan third;
  third.path = "/t.js";
  third.host = "cdn.elsewhere.net";
  third.type = http::ResourceType::kJs;
  third.size = 2000;
  third.placement = ResourcePlan::Placement::kBodyMiddle;
  plan.resources.push_back(third);
  plan.host_ip["cdn.elsewhere.net"] = "10.9.9.9";
  const auto relocated = relocate_single_server(build_site(plan));
  EXPECT_EQ(relocated.origins.server_count(), 1u);
  EXPECT_EQ(relocated.plan.resources.size(), 4u);
  for (const auto& r : relocated.plan.resources) {
    EXPECT_EQ(r.host, relocated.plan.primary_host);
    EXPECT_NE(relocated.store->find(r.host, r.path), nullptr) << r.path;
  }
}

TEST(Transform, UnifyDomainsMakesHostsPushable) {
  auto plan = tiny_plan();
  ResourcePlan cdn;
  cdn.path = "/c.js";
  cdn.host = "static.tiny-cdn.net";
  cdn.type = http::ResourceType::kJs;
  cdn.size = 2000;
  cdn.placement = ResourcePlan::Placement::kBodyMiddle;
  plan.resources.push_back(cdn);
  plan.host_ip["static.tiny-cdn.net"] = "10.9.9.9";
  auto site = build_site(plan);
  EXPECT_EQ(pushable_urls(site).size(), 3u);
  const auto unified = unify_domains(site, {"static.tiny-cdn.net"});
  EXPECT_EQ(pushable_urls(unified).size(), 4u);
}

TEST(Transform, MutateDynamicOnlyTouchesThirdParty) {
  auto plan = tiny_plan();
  ResourcePlan ad;
  ad.path = "/ad.png";
  ad.host = "ads.net";
  ad.type = http::ResourceType::kImage;
  ad.size = 10000;
  ad.placement = ResourcePlan::Placement::kBodyMiddle;
  plan.resources.push_back(ad);
  plan.host_ip["ads.net"] = "10.8.8.8";
  const auto site = build_site(plan);
  util::Rng rng(3);
  const auto mutated = mutate_dynamic(site, 1.0, rng);
  for (std::size_t i = 0; i < site.plan.resources.size(); ++i) {
    const auto& orig = site.plan.resources[i];
    const auto& mut = mutated.plan.resources[i];
    if (orig.host == site.plan.primary_host) {
      EXPECT_EQ(orig.path, mut.path);
      EXPECT_EQ(orig.size, mut.size);
    }
  }
  // The third-party ad changed in some way.
  const auto& orig_ad = site.plan.resources.back();
  const auto& mut_ad = mutated.plan.resources.back();
  EXPECT_TRUE(orig_ad.size != mut_ad.size || orig_ad.path != mut_ad.path);
}

TEST(Transform, MutateWithZeroProbabilityIsIdentity) {
  const auto site = build_site(tiny_plan());
  util::Rng rng(3);
  const auto mutated = mutate_dynamic(site, 0.0, rng);
  EXPECT_EQ(mutated.plan.resources.size(), site.plan.resources.size());
}

// ------------------------------------------------------------------ corpus

TEST(Corpus, GenerationIsDeterministic) {
  const auto profile = PopulationProfile::random100();
  const auto a = generate_page(profile, "site-x", 42);
  const auto b = generate_page(profile, "site-x", 42);
  ASSERT_EQ(a.resources.size(), b.resources.size());
  for (std::size_t i = 0; i < a.resources.size(); ++i) {
    EXPECT_EQ(a.resources[i].path, b.resources[i].path);
    EXPECT_EQ(a.resources[i].size, b.resources[i].size);
  }
}

TEST(Corpus, DifferentNamesGiveDifferentSites) {
  const auto profile = PopulationProfile::random100();
  const auto a = generate_page(profile, "site-x", 42);
  const auto b = generate_page(profile, "site-y", 42);
  EXPECT_NE(a.resources.size(), b.resources.size());
}

TEST(Corpus, ObjectCountsWithinProfileBounds) {
  const auto profile = PopulationProfile::top100();
  for (int i = 0; i < 20; ++i) {
    const auto plan =
        generate_page(profile, std::string("t").append(std::to_string(i)), 7);
    EXPECT_GE(static_cast<int>(plan.resources.size()), profile.min_objects);
    EXPECT_LE(static_cast<int>(plan.resources.size()), profile.max_objects);
  }
}

TEST(Corpus, PushableFractionAnchorsRoughlyHold) {
  // §4.2 calibration targets: 52 % (top) / 24 % (random) of sites with
  // < 20 % pushable objects; allow generous sampling slack at n=60.
  for (const bool top : {true, false}) {
    const auto profile =
        top ? PopulationProfile::top100() : PopulationProfile::random100();
    int low = 0;
    const int n = 60;
    for (int i = 0; i < n; ++i) {
      const auto site = build_site(
          generate_page(profile, "cal" + std::to_string(i), 99));
      const double frac =
          static_cast<double>(pushable_urls(site).size()) /
          static_cast<double>(site.plan.resources.size());
      if (frac < 0.2) ++low;
    }
    const double measured = static_cast<double>(low) / n;
    const double target = top ? 0.52 : 0.24;
    EXPECT_NEAR(measured, target, 0.15) << (top ? "top100" : "random100");
  }
}

TEST(Corpus, RecordedPushMarksOnlyPushableResources) {
  auto profile = PopulationProfile::random100();
  profile.mark_recorded_push = true;
  int marked_sites = 0;
  for (int i = 0; i < 10; ++i) {
    const auto site =
        build_site(generate_page(profile, "rp" + std::to_string(i), 5));
    bool any = false;
    for (const auto& e : site.store->all()) {
      if (!e.recorded_pushed) continue;
      any = true;
      EXPECT_TRUE(site.origins.is_authoritative(site.plan.primary_host,
                                                e.request.url.host))
          << e.request.url.str();
    }
    if (any) ++marked_sites;
  }
  EXPECT_GT(marked_sites, 5);
}

TEST(Corpus, GeneratedSitesAreWellFormed) {
  const auto sites =
      generate_population(PopulationProfile::random100(), 10, 77);
  for (const auto& site : sites) {
    // Every kFromCss resource has a parent stylesheet in the store.
    for (const auto& r : site.plan.resources) {
      if (r.placement == ResourcePlan::Placement::kFromCss) {
        bool found = false;
        for (const auto& parent : site.plan.resources) {
          if (parent.path == r.css_parent &&
              parent.type == http::ResourceType::kCss) {
            found = true;
          }
        }
        EXPECT_TRUE(found) << site.name << " orphan " << r.path;
      }
      if (r.placement == ResourcePlan::Placement::kScriptInjected) {
        EXPECT_FALSE(r.injector.empty());
      }
    }
  }
}

// ---------------------------------------------------------------- profiles

TEST(Profiles, AllSyntheticSitesBuild) {
  const auto sites = synthetic_sites();
  ASSERT_EQ(sites.size(), 10u);
  for (const auto& site : sites) {
    EXPECT_GT(site.plan.resources.size(), 1u) << site.name;
    EXPECT_NE(site.find(site.main_url), nullptr) << site.name;
  }
}

TEST(Profiles, S1HasHiddenFonts) {
  const auto s1 = make_synthetic_site(1);
  int fonts = 0;
  for (const auto& r : s1.plan.resources) {
    if (r.type == http::ResourceType::kFont) {
      ++fonts;
      EXPECT_EQ(r.placement, ResourcePlan::Placement::kFromCss);
    }
  }
  EXPECT_EQ(fonts, 2);
}

TEST(Profiles, S5IsComputeHeavy) {
  const auto s5 = make_synthetic_site(5);
  double max_exec = 0;
  for (const auto& r : s5.plan.resources) {
    max_exec = std::max(max_exec, r.exec_cost_ms);
  }
  EXPECT_GE(max_exec, 200.0);
  EXPECT_GE(s5.plan.html_size, 150u * 1024u);
}

TEST(Profiles, AllWSitesBuildAndMatchTable1) {
  const auto sites = w_sites();
  ASSERT_EQ(sites.size(), 20u);
  EXPECT_EQ(sites[0].domain, "wikipedia");
  EXPECT_EQ(sites[15].domain, "twitter");
  EXPECT_EQ(sites[16].domain, "cnn");
  for (const auto& named : sites) {
    EXPECT_NE(named.site.find(named.site.main_url), nullptr) << named.label;
  }
}

TEST(Profiles, W1HasLargeHtml) {
  const auto w1 = make_w_site(1);
  EXPECT_GE(w1.site.plan.html_size, 200u * 1024u);  // 236 KB in the paper
}

TEST(Profiles, W5IsSmallSingleServer) {
  const auto w5 = make_w_site(5);
  EXPECT_LE(w5.site.plan.resources.size(), 10u);  // "8 requests, 1 server"
  EXPECT_EQ(w5.site.origins.server_count(), 1u);
}

TEST(Profiles, W17IsComplex) {
  const auto w17 = make_w_site(17);
  EXPECT_GE(w17.site.plan.resources.size(), 250u);  // 369 requests
  EXPECT_GE(w17.site.origins.server_count(), 60u);  // 81 servers
}

TEST(Profiles, W10HasInlineJs) {
  const auto w10 = make_w_site(10);
  EXPECT_GT(w10.site.plan.inline_js_fraction, 0.3);
}

TEST(Profiles, CohostedCdnIsPushable) {
  const auto w8 = make_w_site(8);  // img.bbystatic.com co-hosted
  EXPECT_TRUE(w8.site.origins.is_authoritative("www.bestbuy.com",
                                               "img.bbystatic.com"));
}

}  // namespace
}  // namespace h2push::web
