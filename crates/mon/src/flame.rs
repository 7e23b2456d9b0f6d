//! Self-contained SVG renderers for the profile rebuilt from a run
//! record (`qdi-mon flame` and `qdi-mon timeline`): a folded-stack
//! flamegraph of the hot-span call tree and a per-worker timeline of
//! the pool runs. Like the trace waterfall, the output embeds no
//! scripts, fonts or external assets — one file that renders anywhere,
//! which is what CI archives.

use qdi_obs::prof::{PoolRun, RegionProfile, RegionStat, PATH_SEP};

use crate::waterfall::xml_escape as escape;

const FRAME_H: f64 = 18.0;
const CHAR_W: f64 = 6.6;
const WIDTH: f64 = 1200.0;
const PAD: f64 = 10.0;
const HEADER_H: f64 = 26.0;

/// Deterministic warm palette for flame frames, keyed by the frame
/// name so a region keeps its color across renders.
fn frame_color(name: &str) -> String {
    let mut hash: u32 = 2166136261;
    for b in name.bytes() {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(16777619);
    }
    // Flamegraph-style warm hues: red..orange..yellow.
    let r = 205 + (hash % 50);
    let g = 60 + ((hash >> 8) % 130);
    let b = 20 + ((hash >> 16) % 40);
    format!("rgb({r},{g},{b})")
}

fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn fmt_us(us: u64) -> String {
    fmt_ns(us.saturating_mul(1000))
}

/// Truncates `text` to what fits in `width` pixels (returns an empty
/// string for frames too narrow to label).
fn fit_label(text: &str, width: f64) -> String {
    let chars = ((width - 4.0) / CHAR_W).max(0.0) as usize;
    if chars < 3 {
        return String::new();
    }
    if text.chars().count() <= chars {
        return text.to_string();
    }
    let mut out: String = text.chars().take(chars.saturating_sub(1)).collect();
    out.push('…');
    out
}

fn svg_open(width: f64, height: f64, title: &str) -> String {
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {width:.0} {height:.0}\" font-family=\"ui-monospace, monospace\" \
         font-size=\"11\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"#ffffff\"/>\n\
         <text x=\"{PAD}\" y=\"17\" font-size=\"13\" fill=\"#1c2733\">{}</text>\n",
        escape(title)
    )
}

/// Renders the region call tree as a flamegraph (icicle layout: roots
/// on top, children below, width proportional to total time). The
/// layout is computed from the folded-stack model: each region's
/// children sit inside its span, ordered by path.
#[must_use]
pub fn flamegraph_svg(profile: &RegionProfile, title: &str) -> String {
    // Index regions by path and collect children per parent path.
    let mut children: std::collections::HashMap<&str, Vec<&RegionStat>> =
        std::collections::HashMap::new();
    let mut roots: Vec<&RegionStat> = Vec::new();
    for r in &profile.regions {
        match r.path.rfind(PATH_SEP) {
            Some(cut) => children.entry(&r.path[..cut]).or_default().push(r),
            None => roots.push(r),
        }
    }
    // The regions vector is path-sorted, so sibling order is stable.
    // Saturating sums: a hostile profile must not overflow the layout.
    let total = roots.iter().fold(0u64, |t, r| t.saturating_add(r.total_ns));
    let max_depth = profile.regions.iter().map(|r| r.depth).max().unwrap_or(0);
    let height = HEADER_H + max_depth.saturating_add(1) as f64 * FRAME_H + PAD;
    let mut out = svg_open(
        WIDTH,
        height,
        &format!(
            "{title} — {} over {} regions",
            fmt_ns(total),
            profile.regions.len()
        ),
    );
    if total == 0 {
        out.push_str(&format!(
            "<text x=\"{PAD}\" y=\"{}\" fill=\"#6b7a88\">no region time recorded</text>\n",
            HEADER_H + 14.0
        ));
        out.push_str("</svg>\n");
        return out;
    }
    let span_w = WIDTH - 2.0 * PAD;
    // Depth-first layout: (region, x offset in ns-space from its row start).
    let mut stack: Vec<(&RegionStat, u64)> = Vec::new();
    let mut cursor = 0u64; // root-row cursor in ns
    for root in roots {
        stack.push((root, cursor));
        cursor = cursor.saturating_add(root.total_ns);
    }
    stack.reverse();
    let mut frames: Vec<(f64, f64, f64, &RegionStat)> = Vec::new(); // x, y, w, region
    while let Some((region, offset_ns)) = stack.pop() {
        let x = PAD + offset_ns as f64 / total as f64 * span_w;
        let w = region.total_ns as f64 / total as f64 * span_w;
        let y = HEADER_H + region.depth as f64 * FRAME_H;
        frames.push((x, y, w, region));
        if let Some(kids) = children.get(region.path.as_str()) {
            let mut child_off = offset_ns;
            let mut ordered: Vec<(&RegionStat, u64)> = Vec::new();
            for kid in kids.iter() {
                ordered.push((kid, child_off));
                child_off = child_off.saturating_add(kid.total_ns);
            }
            for item in ordered.into_iter().rev() {
                stack.push(item);
            }
        }
    }
    for (x, y, w, region) in frames {
        let w = w.max(0.5);
        let label = fit_label(&region.name, w);
        out.push_str(&format!(
            "<g><title>{} — total {} self {} ({} calls, mean {})</title>\n\
             <rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"{:.1}\" \
             fill=\"{}\" stroke=\"#ffffff\" stroke-width=\"0.5\"/>\n",
            escape(&region.path),
            fmt_ns(region.total_ns),
            fmt_ns(region.self_ns),
            region.count,
            fmt_ns(region.mean_ns() as u64),
            FRAME_H - 1.0,
            frame_color(&region.name),
        ));
        if !label.is_empty() {
            out.push_str(&format!(
                "<text x=\"{:.1}\" y=\"{:.1}\" fill=\"#1c1c1c\">{}</text>\n",
                x + 3.0,
                y + FRAME_H - 5.5,
                escape(&label)
            ));
        }
        out.push_str("</g>\n");
    }
    out.push_str("</svg>\n");
    out
}

const LANE_H: f64 = 22.0;
const LANE_GAP: f64 = 4.0;
const RUN_HEADER_H: f64 = 20.0;
const LANE_LABEL_W: f64 = 120.0;

/// Renders pool runs as worker-lane timelines: one row per worker,
/// busy segments as filled rects over an idle-colored track, steal and
/// queue-wait totals in the lane label. Runs are drawn in the given
/// order, each with its own time scale.
#[must_use]
pub fn timeline_svg(runs: &[PoolRun], title: &str) -> String {
    let lanes_total: usize = runs.iter().map(|r| r.lanes.len().max(1)).sum();
    let height = HEADER_H
        + runs.len() as f64 * (RUN_HEADER_H + LANE_GAP)
        + lanes_total as f64 * (LANE_H + LANE_GAP)
        + PAD;
    let mut out = svg_open(
        WIDTH,
        height.max(HEADER_H + 30.0),
        &format!("{title} — {} pool run(s)", runs.len()),
    );
    if runs.is_empty() {
        out.push_str(&format!(
            "<text x=\"{PAD}\" y=\"{}\" fill=\"#6b7a88\">no pool runs recorded \
             (enable profiling and run a parallel bag)</text>\n",
            HEADER_H + 14.0
        ));
        out.push_str("</svg>\n");
        return out;
    }
    let track_w = WIDTH - LANE_LABEL_W - 2.0 * PAD;
    let mut y = HEADER_H;
    for (i, run) in runs.iter().enumerate() {
        let eff = run
            .efficiency()
            .map_or("n/a".to_string(), |e| format!("{:.0}%", e * 100.0));
        out.push_str(&format!(
            "<text x=\"{PAD}\" y=\"{:.1}\" fill=\"#1c2733\">run {}: {} jobs, {} workers, \
             wall {}, {} steals, efficiency {}</text>\n",
            y + RUN_HEADER_H - 6.0,
            i,
            run.jobs,
            run.workers,
            fmt_us(run.wall_us),
            run.steals,
            eff,
        ));
        y += RUN_HEADER_H + LANE_GAP;
        let wall = run.wall_us.max(1) as f64;
        for lane in &run.lanes {
            // Idle-colored track underneath the busy segments.
            out.push_str(&format!(
                "<text x=\"{PAD}\" y=\"{:.1}\" fill=\"#3c4a58\">w{} {}j {}st</text>\n\
                 <rect x=\"{LANE_LABEL_W:.1}\" y=\"{y:.1}\" width=\"{track_w:.1}\" \
                 height=\"{LANE_H:.1}\" fill=\"#eef2f6\"/>\n",
                y + LANE_H - 7.0,
                lane.worker,
                lane.jobs,
                lane.steals,
            ));
            for seg in &lane.segments {
                let x = LANE_LABEL_W + seg.start_us as f64 / wall * track_w;
                let w =
                    ((seg.end_us.saturating_sub(seg.start_us)) as f64 / wall * track_w).max(0.5);
                out.push_str(&format!(
                    "<g><title>worker {}: jobs {}..+{} ({} .. {})</title>\
                     <rect x=\"{x:.2}\" y=\"{:.1}\" width=\"{w:.2}\" height=\"{:.1}\" \
                     fill=\"#2a6fdb\"/></g>\n",
                    lane.worker,
                    seg.first_job,
                    seg.jobs,
                    fmt_us(seg.start_us),
                    fmt_us(seg.end_us),
                    y + 2.0,
                    LANE_H - 4.0,
                ));
            }
            if lane.segments_truncated {
                out.push_str(&format!(
                    "<text x=\"{:.1}\" y=\"{:.1}\" fill=\"#a33\" font-size=\"9\">⋯</text>\n",
                    LANE_LABEL_W + track_w - 10.0,
                    y + LANE_H - 7.0
                ));
            }
            y += LANE_H + LANE_GAP;
        }
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdi_obs::prof::{Segment, WorkerLane};

    fn stat(path: &str, total: u64, self_ns: u64, count: u64) -> RegionStat {
        RegionStat {
            path: path.to_string(),
            name: path.rsplit(PATH_SEP).next().unwrap().to_string(),
            depth: path.matches(PATH_SEP).count(),
            count,
            total_ns: total,
            self_ns,
            min_ns: 1,
            max_ns: total,
        }
    }

    #[test]
    fn flamegraph_renders_nested_frames() {
        let profile = RegionProfile {
            regions: vec![
                stat("a", 1000, 400, 2),
                stat("a;b", 600, 600, 4),
                stat("c", 500, 500, 1),
            ],
        };
        let svg = flamegraph_svg(&profile, "test profile");
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("test profile"));
        assert!(svg.matches("<rect").count() >= 4, "3 frames + background");
        assert!(svg.contains("a;b"), "tooltip carries the folded path");
        assert!(!svg.contains("<script"), "self-contained, no scripts");
    }

    #[test]
    fn flamegraph_handles_empty_profiles() {
        let svg = flamegraph_svg(&RegionProfile::default(), "empty");
        assert!(svg.contains("no region time recorded"));
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    fn timeline_renders_lanes_and_segments() {
        let runs = vec![PoolRun {
            jobs: 4,
            workers: 2,
            wall_us: 100,
            steals: 1,
            lanes: vec![
                WorkerLane {
                    worker: 0,
                    jobs: 3,
                    steals: 0,
                    busy_us: 60,
                    queue_wait_us: 5,
                    idle_us: 35,
                    segments: vec![Segment {
                        start_us: 0,
                        end_us: 60,
                        first_job: 0,
                        jobs: 3,
                    }],
                    segments_truncated: false,
                },
                WorkerLane {
                    worker: 1,
                    jobs: 1,
                    steals: 1,
                    busy_us: 20,
                    queue_wait_us: 30,
                    idle_us: 50,
                    segments: vec![Segment {
                        start_us: 40,
                        end_us: 60,
                        first_job: 3,
                        jobs: 1,
                    }],
                    segments_truncated: true,
                },
            ],
        }];
        let svg = timeline_svg(&runs, "pool timeline");
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("w0 3j 0st"));
        assert!(svg.contains("w1 1j 1st"));
        assert!(svg.contains("efficiency 40%"), "80 / (2*100)");
        assert!(svg.contains("⋯"), "truncation marker shown");
        assert!(!svg.contains("<script"));
    }

    #[test]
    fn timeline_handles_no_runs() {
        let svg = timeline_svg(&[], "empty");
        assert!(svg.contains("no pool runs recorded"));
    }
}
