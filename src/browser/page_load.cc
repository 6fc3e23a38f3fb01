#include "browser/page_load.h"

namespace h2push::browser {

PageLoad::PageLoad(sim::Simulator& sim, BrowserConfig config,
                   const replay::OriginMap& origins, http::Url main_url,
                   TransportFactory factory, util::Rng compute_rng)
    : sim_(sim), config_(std::move(config)) {
  main_thread_ = std::make_unique<MainThread>(sim_, compute_rng,
                                              config_.task_jitter_sigma);
  fetches_ = std::make_unique<FetchManager>(
      sim_, config_, origins, main_url.host, std::move(factory));
  renderer_ = std::make_unique<Renderer>(sim_, config_, *main_thread_,
                                         *fetches_, std::move(main_url));
}

PageLoadResult PageLoad::result() {
  PageLoadResult out;
  Renderer& r = *renderer_;
  FetchManager& f = *fetches_;
  out.complete = r.onload_fired();
  const sim::Time t0 = f.main_connect_end();
  if (out.complete) {
    out.plt_ms = sim::to_ms(r.onload_time() - t0);
    out.dom_content_loaded_ms = sim::to_ms(r.dom_content_loaded() - t0);
  }
  r.visual().set_reference(t0);
  r.visual().finalize(r.total_above_fold_weight());
  out.speed_index_ms = r.visual().speed_index_ms();
  out.first_paint_ms = r.visual().first_paint_ms();
  out.last_visual_change_ms = r.visual().last_change_ms();
  out.vc_curve = r.visual().curve();
  out.bytes_pushed = f.pushed_bytes();
  out.bytes_total = f.total_body_bytes();
  out.num_requests = f.fetches().size();
  out.pushes_cancelled = f.pushes_cancelled();
  for (const auto& fetch : f.fetches()) {
    if (fetch->pushed()) ++out.num_pushed;
    ResourceTiming rt;
    rt.url = fetch->key();
    rt.type = fetch->type();
    rt.t_initiated_ms = sim::to_ms(fetch->initiated_at() - t0);
    rt.t_headers_ms = sim::to_ms(fetch->headers_at() - t0);
    rt.t_complete_ms = sim::to_ms(fetch->completed_at() - t0);
    rt.size = fetch->received_bytes();
    rt.pushed = fetch->pushed();
    rt.adopted = fetch->adopted();
    out.resources.push_back(std::move(rt));
  }
  return out;
}

}  // namespace h2push::browser
