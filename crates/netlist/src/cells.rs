//! Composite QDI cells: balanced dual-rail functions, half-buffers,
//! completion detectors and minterm planes.
//!
//! Every data-path cell follows the template of the paper's Fig. 4:
//!
//! 1. a **minterm plane** of Muller C-elements combining input rails,
//! 2. a **recombination stage** of OR gates grouping minterms per output
//!    rail (arity-1 ORs keep the two rails at equal logical depth, so the
//!    number of transitions per computation is data independent),
//! 3. a **latch stage** of resettable C-elements (`Cr`) gated by the output
//!    acknowledge,
//! 4. a **NOR completion detector** producing the acknowledge returned to
//!    the senders.
//!
//! Acknowledge convention: 1 = consumer empty/ready, 0 = data captured
//! (see the crate-level docs).

#![allow(clippy::needless_range_loop)] // index loops run over parallel channel/ack arrays
use crate::channel::Channel;
use crate::gate::GateKind;
use crate::id::NetId;
use crate::netlist::NetlistBuilder;

/// Handle returned by cell constructors: the output channel plus the
/// acknowledge net to be wired back to the cell's data senders.
#[derive(Debug, Clone)]
pub struct QdiCell {
    /// Output channel. Its `ack` field is the acknowledge *from the
    /// receiver* that was passed to the constructor.
    pub out: Channel,
    /// Acknowledge driven by this cell towards whoever supplies its inputs
    /// (the NOR completion output of Fig. 4). Wire it with
    /// [`NetlistBuilder::connect_input_acks`] or into an upstream cell.
    pub ack_to_senders: NetId,
}

/// Builds the dual-rail XOR gate of the paper's Fig. 4 with the exact
/// structure of its Fig. 5 graph: four C-elements `m1..m4` (level 1), two
/// OR gates `o1`/`o2` (level 2), two `Cr` latches `h1`/`h2` (level 3) and
/// the NOR completion `n1` (level 4).
///
/// Net-name map for the capacitance sweeps of Section V
/// (`Cl_ij` = load capacitance of gate `j` at level `i`):
///
/// * `Cl11` → net `{name}.m1`, `Cl12` → `{name}.m2`,
///   `Cl13` → `{name}.m3`, `Cl14` → `{name}.m4`
/// * `Cl21` → `{name}.o1`, `Cl22` → `{name}.o2`
/// * `Cl31` → `{name}.h1` (= output rail `co0`), `Cl32` → `{name}.h2`
/// * level 4 output → `{name}.n1`
///
/// `m1 = C(a0,b0)` and `m2 = C(a1,b1)` feed `o1` (rail `co0`);
/// `m3 = C(a1,b0)` and `m4 = C(a0,b1)` feed `o2` (rail `co1`).
pub fn dual_rail_xor(
    b: &mut NetlistBuilder,
    name: &str,
    a: &Channel,
    bb: &Channel,
    out_ack: NetId,
) -> QdiCell {
    assert!(
        a.is_dual_rail() && bb.is_dual_rail(),
        "dual_rail_xor needs dual-rail inputs"
    );
    let m1 = b.gate(
        GateKind::Muller,
        format!("{name}.m1"),
        &[a.rail(0), bb.rail(0)],
    );
    let m2 = b.gate(
        GateKind::Muller,
        format!("{name}.m2"),
        &[a.rail(1), bb.rail(1)],
    );
    let m3 = b.gate(
        GateKind::Muller,
        format!("{name}.m3"),
        &[a.rail(1), bb.rail(0)],
    );
    let m4 = b.gate(
        GateKind::Muller,
        format!("{name}.m4"),
        &[a.rail(0), bb.rail(1)],
    );
    let o1 = b.gate(GateKind::Or, format!("{name}.o1"), &[m1, m2]);
    let o2 = b.gate(GateKind::Or, format!("{name}.o2"), &[m3, m4]);
    let h1 = b.gate(GateKind::MullerReset, format!("{name}.h1"), &[o1, out_ack]);
    let h2 = b.gate(GateKind::MullerReset, format!("{name}.h2"), &[o2, out_ack]);
    let n1 = b.gate(GateKind::Nor, format!("{name}.n1"), &[h1, h2]);
    let out = b.internal_channel(format!("{name}.co"), &[h1, h2], Some(out_ack));
    QdiCell {
        out,
        ack_to_senders: n1,
    }
}

/// Builds a balanced dual-rail cell computing an arbitrary two-input
/// boolean function given as a truth table: `truth[(a << 1) | b]` is the
/// output for inputs `a`, `b`.
///
/// Both output rails get exactly one OR gate (whatever the minterm group
/// sizes), so one C-element and one OR switch per computation regardless of
/// the data — the balanced-data-path property of Section II.
///
/// # Panics
///
/// Panics if the function is constant (a constant has no minterm on one
/// rail and cannot be encoded as a valid dual-rail cell).
pub fn dual_rail_fn2(
    b: &mut NetlistBuilder,
    name: &str,
    a: &Channel,
    bb: &Channel,
    out_ack: NetId,
    truth: [bool; 4],
) -> QdiCell {
    assert!(
        a.is_dual_rail() && bb.is_dual_rail(),
        "dual_rail_fn2 needs dual-rail inputs"
    );
    let mut groups: [Vec<NetId>; 2] = [Vec::new(), Vec::new()];
    for av in 0..2usize {
        for bv in 0..2usize {
            let m = b.gate(
                GateKind::Muller,
                format!("{name}.m{av}{bv}"),
                &[a.rail(av), bb.rail(bv)],
            );
            let out_val = truth[(av << 1) | bv] as usize;
            groups[out_val].push(m);
        }
    }
    assert!(
        !groups[0].is_empty() && !groups[1].is_empty(),
        "constant function cannot be dual-rail encoded"
    );
    let o0 = b.gate(GateKind::Or, format!("{name}.or0"), &groups[0]);
    let o1 = b.gate(GateKind::Or, format!("{name}.or1"), &groups[1]);
    let h0 = b.gate(GateKind::MullerReset, format!("{name}.h0"), &[o0, out_ack]);
    let h1 = b.gate(GateKind::MullerReset, format!("{name}.h1"), &[o1, out_ack]);
    let n = b.gate(GateKind::Nor, format!("{name}.nc"), &[h0, h1]);
    let out = b.internal_channel(format!("{name}.co"), &[h0, h1], Some(out_ack));
    QdiCell {
        out,
        ack_to_senders: n,
    }
}

/// Balanced dual-rail AND (see [`dual_rail_fn2`]).
pub fn dual_rail_and(
    b: &mut NetlistBuilder,
    name: &str,
    a: &Channel,
    bb: &Channel,
    out_ack: NetId,
) -> QdiCell {
    dual_rail_fn2(b, name, a, bb, out_ack, [false, false, false, true])
}

/// Weak-conditioned half buffer (WCHB): one `Cr` latch per rail plus a NOR
/// completion. The basic pipeline stage of QDI design; the paper's AES
/// floorplan instantiates rows of them (`HB`/`BU` blocks).
pub fn wchb_buffer(b: &mut NetlistBuilder, name: &str, input: &Channel, out_ack: NetId) -> QdiCell {
    let rails: Vec<NetId> = input
        .rails
        .iter()
        .enumerate()
        .map(|(i, &r)| b.gate(GateKind::MullerReset, format!("{name}.l{i}"), &[r, out_ack]))
        .collect();
    let n = b.gate(GateKind::Nor, format!("{name}.nc"), &rails);
    let out = b.internal_channel(format!("{name}.co"), &rails, Some(out_ack));
    QdiCell {
        out,
        ack_to_senders: n,
    }
}

/// Builds an OR tree over `nets` with fan-in at most `max_arity`,
/// returning the root net and creating `⌈log_maxarity(n)⌉` levels.
/// A single input is passed through an arity-1 OR so the tree always
/// contributes at least one level (keeping parallel trees depth-matched).
///
/// # Panics
///
/// Panics if `nets` is empty or `max_arity == 0`.
pub fn or_tree(b: &mut NetlistBuilder, name: &str, nets: &[NetId], max_arity: usize) -> NetId {
    assert!(!nets.is_empty(), "or_tree needs at least one input");
    assert!(max_arity >= 1, "max_arity must be at least 1");
    let mut layer: Vec<NetId> = nets.to_vec();
    let mut level = 0usize;
    loop {
        let mut next = Vec::with_capacity(layer.len().div_ceil(max_arity));
        for (i, chunk) in layer.chunks(max_arity).enumerate() {
            next.push(b.gate(GateKind::Or, format!("{name}.t{level}_{i}"), chunk));
        }
        level += 1;
        if next.len() == 1 {
            return next[0];
        }
        layer = next;
    }
}

/// Depth (in OR levels) that [`or_tree`] produces for `n` inputs.
pub fn or_tree_depth(n: usize, max_arity: usize) -> usize {
    assert!(n >= 1 && max_arity >= 2);
    let mut depth = 1;
    let mut width = n.div_ceil(max_arity);
    while width > 1 {
        depth += 1;
        width = width.div_ceil(max_arity);
    }
    depth
}

/// Pads `net` with `levels` arity-1 OR gates (depth equalisation between
/// parallel OR trees of different widths).
pub fn pad_depth(b: &mut NetlistBuilder, name: &str, net: NetId, levels: usize) -> NetId {
    let mut cur = net;
    for i in 0..levels {
        cur = b.gate(GateKind::Or, format!("{name}.pad{i}"), &[cur]);
    }
    cur
}

/// Builds a full 1-of-`2^k` minterm plane over `inputs` (each a 1-of-N
/// channel) by recursive pairwise combination with C-elements: the returned
/// vector has one net per combined input value, indexed in row-major order
/// (first channel most significant).
///
/// For two dual-rail channels this is the four-C-element plane of Fig. 4;
/// for eight dual-rail channels it is the 256-minterm decode used by the
/// gate-level AES S-box.
///
/// # Panics
///
/// Panics if `inputs` is empty.
pub fn minterm_plane(b: &mut NetlistBuilder, name: &str, inputs: &[&Channel]) -> Vec<NetId> {
    assert!(
        !inputs.is_empty(),
        "minterm_plane needs at least one input channel"
    );
    build_minterms(b, name, inputs, 0)
}

fn build_minterms(
    b: &mut NetlistBuilder,
    name: &str,
    inputs: &[&Channel],
    depth: usize,
) -> Vec<NetId> {
    if inputs.len() == 1 {
        return inputs[0].rails.clone();
    }
    let mid = inputs.len() / 2;
    let hi = build_minterms(b, &format!("{name}.hi"), &inputs[..mid], depth + 1);
    let lo = build_minterms(b, &format!("{name}.lo"), &inputs[mid..], depth + 1);
    let mut out = Vec::with_capacity(hi.len() * lo.len());
    for (i, &h) in hi.iter().enumerate() {
        for (j, &l) in lo.iter().enumerate() {
            out.push(b.gate(
                GateKind::Muller,
                format!("{name}.p{depth}_{i}_{j}"),
                &[h, l],
            ));
        }
    }
    out
}

/// Multi-channel completion: returns an acknowledge net that is 1 while
/// *all* `channels` are invalid and 0 once all have presented valid data.
///
/// Built as per-channel OR validity detectors combined by a C-element tree
/// and inverted — the N-channel generalisation of Fig. 4's NOR.
///
/// # Panics
///
/// Panics if `channels` is empty.
pub fn multi_completion(b: &mut NetlistBuilder, name: &str, channels: &[&Channel]) -> NetId {
    assert!(
        !channels.is_empty(),
        "multi_completion needs at least one channel"
    );
    if channels.len() == 1 {
        // Single channel: plain NOR, as in Fig. 4.
        return b.gate(GateKind::Nor, format!("{name}.nc"), &channels[0].rails);
    }
    let valids: Vec<NetId> = channels
        .iter()
        .enumerate()
        .map(|(i, ch)| b.gate(GateKind::Or, format!("{name}.v{i}"), &ch.rails))
        .collect();
    let done = c_tree(b, &format!("{name}.c"), &valids);
    b.gate(GateKind::Inv, format!("{name}.ack"), &[done])
}

/// Builds a Muller C-element tree over `nets` (fan-in 2), returning the
/// root: rises when all inputs are 1, falls when all are 0.
///
/// # Panics
///
/// Panics if `nets` is empty.
pub fn c_tree(b: &mut NetlistBuilder, name: &str, nets: &[NetId]) -> NetId {
    assert!(!nets.is_empty(), "c_tree needs at least one input");
    let mut layer: Vec<NetId> = nets.to_vec();
    let mut level = 0usize;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for (i, chunk) in layer.chunks(2).enumerate() {
            if chunk.len() == 2 {
                next.push(b.gate(GateKind::Muller, format!("{name}.t{level}_{i}"), chunk));
            } else {
                next.push(chunk[0]);
            }
        }
        layer = next;
        level += 1;
    }
    layer[0]
}

/// Builds a multi-output balanced dual-rail lookup table over dual-rail
/// `inputs`: output bit `o` of the cell is `(table[v] >> o) & 1` for the
/// combined input value `v`. Returns one [`QdiCell`] per output bit; bit
/// `o` is latched on `out_acks[o]` (pass the same net repeatedly to share
/// one acknowledge). All cells report the same `ack_to_senders`: a
/// completion detector over every latched output.
///
/// This is the generator behind the gate-level AES S-box and the DES
/// S-boxes: a shared minterm plane feeds, per output bit, two depth-matched
/// OR trees (one per rail), a `Cr` latch pair and a completion detector.
///
/// # Panics
///
/// Panics if `inputs` is empty, if any input is not dual-rail, if
/// `table.len() != 2^inputs.len()`, if `out_acks.len() != out_bits`, or if
/// any output bit is constant across `table`.
pub fn dual_rail_lut(
    b: &mut NetlistBuilder,
    name: &str,
    inputs: &[&Channel],
    out_acks: &[NetId],
    table: &[u64],
    out_bits: usize,
) -> Vec<QdiCell> {
    assert!(!inputs.is_empty(), "dual_rail_lut needs inputs");
    assert!(
        inputs.iter().all(|c| c.is_dual_rail()),
        "dual_rail_lut needs dual-rail inputs"
    );
    assert_eq!(
        table.len(),
        1 << inputs.len(),
        "table size must be 2^inputs"
    );
    assert_eq!(
        out_acks.len(),
        out_bits,
        "one acknowledge net per output bit"
    );
    let minterms = minterm_plane(b, &format!("{name}.mt"), inputs);
    let max_arity = 4;
    // All OR trees padded to the depth of the widest possible group so the
    // cell stays balanced in logical depth across rails and outputs.
    let target_depth = or_tree_depth(table.len().max(2) - 1, max_arity);
    let mut cells = Vec::with_capacity(out_bits);
    for bit in 0..out_bits {
        // Per-output-bit sub-block: keeps each bit's recombination trees
        // and latch pair physically together under hierarchical P&R.
        b.push_block(format!("b{bit}"));
        let mut groups: [Vec<NetId>; 2] = [Vec::new(), Vec::new()];
        for (value, &word) in table.iter().enumerate() {
            let out_val = ((word >> bit) & 1) as usize;
            groups[out_val].push(minterms[value]);
        }
        assert!(
            !groups[0].is_empty() && !groups[1].is_empty(),
            "output bit {bit} of {name} is constant and cannot be dual-rail encoded"
        );
        let mut rails = [NetId::from_raw(0); 2];
        for (val, group) in groups.iter().enumerate() {
            let tree = or_tree(b, &format!("{name}.b{bit}r{val}"), group, max_arity);
            let depth = or_tree_depth(group.len(), max_arity);
            rails[val] = pad_depth(
                b,
                &format!("{name}.b{bit}r{val}"),
                tree,
                target_depth.saturating_sub(depth),
            );
        }
        let ack = out_acks[bit];
        let h0 = b.gate(
            GateKind::MullerReset,
            format!("{name}.b{bit}.h0"),
            &[rails[0], ack],
        );
        let h1 = b.gate(
            GateKind::MullerReset,
            format!("{name}.b{bit}.h1"),
            &[rails[1], ack],
        );
        let out = b.internal_channel(format!("{name}.b{bit}.co"), &[h0, h1], Some(ack));
        b.pop_block();
        cells.push(QdiCell {
            out,
            ack_to_senders: NetId::from_raw(0),
        });
    }
    // One shared completion over all latched output channels.
    let outs: Vec<&Channel> = cells.iter().map(|c| &c.out).collect();
    let ack = multi_completion(b, &format!("{name}.done"), &outs);
    for c in &mut cells {
        c.ack_to_senders = ack;
    }
    cells
}

/// A multiplexer cell: output channel plus per-input acknowledges.
#[derive(Debug, Clone)]
pub struct MuxCell {
    /// Output channel.
    pub out: Channel,
    /// Acknowledge for the select channel (consumed on every token).
    pub ack_sel: NetId,
    /// Acknowledge for input `a` (only moves when `sel = 0` reads `a`).
    pub ack_a: NetId,
    /// Acknowledge for input `b` (only moves when `sel = 1` reads `b`).
    pub ack_b: NetId,
}

/// Builds a dual-rail 2-way multiplexer: `out = sel ? b : a`
/// (the `Mux` blocks of the paper's Fig. 8).
///
/// The steering minterms are 3-input C-elements
/// `C(sel_rail, data_rail, out_ack)` acting as the latch stage, so an
/// input is acknowledged only once its token has actually been captured —
/// the unselected channel's sender keeps waiting, as QDI mux semantics
/// require.
pub fn dual_rail_mux2(
    b: &mut NetlistBuilder,
    name: &str,
    sel: &Channel,
    a: &Channel,
    bb: &Channel,
    out_ack: NetId,
) -> MuxCell {
    assert!(
        sel.is_dual_rail() && a.is_dual_rail() && bb.is_dual_rail(),
        "dual_rail_mux2 needs dual-rail channels"
    );
    let mut taken_a = Vec::with_capacity(2);
    let mut taken_b = Vec::with_capacity(2);
    let mut rails = Vec::with_capacity(2);
    for v in 0..2usize {
        let ma = b.gate(
            GateKind::MullerReset,
            format!("{name}.a{v}"),
            &[sel.rail(0), a.rail(v), out_ack],
        );
        let mb = b.gate(
            GateKind::MullerReset,
            format!("{name}.b{v}"),
            &[sel.rail(1), bb.rail(v), out_ack],
        );
        taken_a.push(ma);
        taken_b.push(mb);
        rails.push(b.gate(GateKind::Or, format!("{name}.o{v}"), &[ma, mb]));
    }
    let got_a = b.gate(GateKind::Or, format!("{name}.ga"), &taken_a);
    let got_b = b.gate(GateKind::Or, format!("{name}.gb"), &taken_b);
    let ack_a = b.gate(GateKind::Inv, format!("{name}.acka"), &[got_a]);
    let ack_b = b.gate(GateKind::Inv, format!("{name}.ackb"), &[got_b]);
    let ack_sel = b.gate(GateKind::Nor, format!("{name}.nc"), &rails);
    let out = b.internal_channel(format!("{name}.co"), &rails, Some(out_ack));
    MuxCell {
        out,
        ack_sel,
        ack_a,
        ack_b,
    }
}

/// Builds a dual-rail 1-to-2 demultiplexer: the input token is steered to
/// output 0 or 1 by `sel` (the `Dmux` blocks of Fig. 8). Returns the two
/// output cells; their shared `ack_to_senders` acknowledges both the data
/// and the select channels.
pub fn dual_rail_demux2(
    b: &mut NetlistBuilder,
    name: &str,
    sel: &Channel,
    a: &Channel,
    out_acks: [NetId; 2],
) -> [QdiCell; 2] {
    assert!(
        sel.is_dual_rail() && a.is_dual_rail(),
        "dual_rail_demux2 needs dual-rail channels"
    );
    let mut cells: Vec<QdiCell> = Vec::with_capacity(2);
    let mut all_rails = Vec::with_capacity(4);
    for way in 0..2usize {
        let mut rails = Vec::with_capacity(2);
        for v in 0..2usize {
            let m = b.gate(
                GateKind::Muller,
                format!("{name}.w{way}m{v}"),
                &[sel.rail(way), a.rail(v)],
            );
            let h = b.gate(
                GateKind::MullerReset,
                format!("{name}.w{way}h{v}"),
                &[m, out_acks[way]],
            );
            rails.push(h);
            all_rails.push(h);
        }
        let out = b.internal_channel(format!("{name}.co{way}"), &rails, Some(out_acks[way]));
        cells.push(QdiCell {
            out,
            ack_to_senders: NetId::from_raw(0),
        });
    }
    // One token appears on exactly one way: completion senses all rails.
    let n = b.gate(GateKind::Nor, format!("{name}.nc"), &all_rails);
    for c in &mut cells {
        c.ack_to_senders = n;
    }
    let second = cells.pop().expect("two ways");
    let first = cells.pop().expect("two ways");
    [first, second]
}

/// Converts two dual-rail channels into one 1-of-4 channel
/// (`value = 2·hi + lo`). 1-of-N recoding halves the transitions per bit
/// pair — the power/security trade the paper's Section II mentions for
/// 1-of-N encodings.
pub fn to_one_of_four(
    b: &mut NetlistBuilder,
    name: &str,
    hi: &Channel,
    lo: &Channel,
    out_ack: NetId,
) -> QdiCell {
    assert!(
        hi.is_dual_rail() && lo.is_dual_rail(),
        "to_one_of_four needs dual-rail inputs"
    );
    let mut rails = Vec::with_capacity(4);
    for h in 0..2usize {
        for l in 0..2usize {
            let m = b.gate(
                GateKind::Muller,
                format!("{name}.m{h}{l}"),
                &[hi.rail(h), lo.rail(l)],
            );
            rails.push(b.gate(
                GateKind::MullerReset,
                format!("{name}.h{h}{l}"),
                &[m, out_ack],
            ));
        }
    }
    let n = b.gate(GateKind::Nor, format!("{name}.nc"), &rails);
    let out = b.internal_channel(format!("{name}.co"), &rails, Some(out_ack));
    QdiCell {
        out,
        ack_to_senders: n,
    }
}

/// Splits a 1-of-4 channel back into two dual-rail channels (`hi`, `lo`).
/// Returns `(hi_cell, lo_cell)`; both report the same shared acknowledge
/// to the sender (a C-element join over the two output validities).
pub fn from_one_of_four(
    b: &mut NetlistBuilder,
    name: &str,
    q: &Channel,
    hi_ack: NetId,
    lo_ack: NetId,
) -> (QdiCell, QdiCell) {
    assert_eq!(q.arity(), 4, "from_one_of_four needs a 1-of-4 channel");
    // value = 2h + l: hi rail 1 = q2|q3, lo rail 1 = q1|q3, etc.
    let hi0 = b.gate(GateKind::Or, format!("{name}.hi0"), &[q.rail(0), q.rail(1)]);
    let hi1 = b.gate(GateKind::Or, format!("{name}.hi1"), &[q.rail(2), q.rail(3)]);
    let lo0 = b.gate(GateKind::Or, format!("{name}.lo0"), &[q.rail(0), q.rail(2)]);
    let lo1 = b.gate(GateKind::Or, format!("{name}.lo1"), &[q.rail(1), q.rail(3)]);
    let hh0 = b.gate(GateKind::MullerReset, format!("{name}.hh0"), &[hi0, hi_ack]);
    let hh1 = b.gate(GateKind::MullerReset, format!("{name}.hh1"), &[hi1, hi_ack]);
    let lh0 = b.gate(GateKind::MullerReset, format!("{name}.lh0"), &[lo0, lo_ack]);
    let lh1 = b.gate(GateKind::MullerReset, format!("{name}.lh1"), &[lo1, lo_ack]);
    let hi_out = b.internal_channel(format!("{name}.hi"), &[hh0, hh1], Some(hi_ack));
    let lo_out = b.internal_channel(format!("{name}.lo"), &[lh0, lh1], Some(lo_ack));
    let hi_valid = b.gate(GateKind::Or, format!("{name}.hv"), &[hh0, hh1]);
    let lo_valid = b.gate(GateKind::Or, format!("{name}.lv"), &[lh0, lh1]);
    let done = b.gate(
        GateKind::Muller,
        format!("{name}.dn"),
        &[hi_valid, lo_valid],
    );
    let ack = b.gate(GateKind::Inv, format!("{name}.ack"), &[done]);
    (
        QdiCell {
            out: hi_out,
            ack_to_senders: ack,
        },
        QdiCell {
            out: lo_out,
            ack_to_senders: ack,
        },
    )
}

/// Builds a 1-of-4 XOR cell: both operands and the result carry 2-bit
/// values in 1-of-4 encoding (`out = a ⊕ b` bitwise on the 2-bit values).
///
/// Structure: a 16-C-element minterm plane, one 4-input OR per output
/// rail, a `Cr` latch per rail and a NOR completion. Per communication one
/// gate fires per level — 4 transitions per phase for *two* bits, where
/// two dual-rail XOR cells need 8. This is the transition saving the
/// paper's Section II attributes to 1-of-N encodings.
pub fn one_of_four_xor(
    b: &mut NetlistBuilder,
    name: &str,
    a: &Channel,
    bb: &Channel,
    out_ack: NetId,
) -> QdiCell {
    assert_eq!(a.arity(), 4, "one_of_four_xor needs 1-of-4 inputs");
    assert_eq!(bb.arity(), 4, "one_of_four_xor needs 1-of-4 inputs");
    let mut groups: [Vec<NetId>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for av in 0..4usize {
        for bv in 0..4usize {
            let m = b.gate(
                GateKind::Muller,
                format!("{name}.m{av}{bv}"),
                &[a.rail(av), bb.rail(bv)],
            );
            groups[av ^ bv].push(m);
        }
    }
    let mut rails = Vec::with_capacity(4);
    for (v, group) in groups.iter().enumerate() {
        let or = b.gate(GateKind::Or, format!("{name}.o{v}"), group);
        rails.push(b.gate(
            GateKind::MullerReset,
            format!("{name}.h{v}"),
            &[or, out_ack],
        ));
    }
    let n = b.gate(GateKind::Nor, format!("{name}.nc"), &rails);
    let out = b.internal_channel(format!("{name}.co"), &rails, Some(out_ack));
    QdiCell {
        out,
        ack_to_senders: n,
    }
}

/// Builds a **deliberately unbalanced** variant of [`dual_rail_xor`]: the
/// `co1` rail crosses an extra arity-1 OR (`{name}.pad`) between its
/// recombination OR and its latch, so computations with `a ⊕ b = 1`
/// switch one more gate than computations with `a ⊕ b = 0`.
///
/// The cell is functionally correct and handshake-complete — simulation
/// produces the right codewords — but its per-level transition count is
/// data dependent (the latch of `co1` sits one level deeper than the
/// latch of `co0`), which is exactly the logic-level leak the symbolic
/// verifier (`qdi-sym`, lint `QDI0201`) exists to refute. Use it as a
/// negative fixture for balance-verification tooling; never in a design.
pub fn dual_rail_xor_unbalanced(
    b: &mut NetlistBuilder,
    name: &str,
    a: &Channel,
    bb: &Channel,
    out_ack: NetId,
) -> QdiCell {
    assert!(
        a.is_dual_rail() && bb.is_dual_rail(),
        "dual_rail_xor_unbalanced needs dual-rail inputs"
    );
    let m1 = b.gate(
        GateKind::Muller,
        format!("{name}.m1"),
        &[a.rail(0), bb.rail(0)],
    );
    let m2 = b.gate(
        GateKind::Muller,
        format!("{name}.m2"),
        &[a.rail(1), bb.rail(1)],
    );
    let m3 = b.gate(
        GateKind::Muller,
        format!("{name}.m3"),
        &[a.rail(1), bb.rail(0)],
    );
    let m4 = b.gate(
        GateKind::Muller,
        format!("{name}.m4"),
        &[a.rail(0), bb.rail(1)],
    );
    let o1 = b.gate(GateKind::Or, format!("{name}.o1"), &[m1, m2]);
    let o2 = b.gate(GateKind::Or, format!("{name}.o2"), &[m3, m4]);
    // The imbalance: rail 1 only, one extra gate in series.
    let pad = b.gate(GateKind::Or, format!("{name}.pad"), &[o2]);
    let h1 = b.gate(GateKind::MullerReset, format!("{name}.h1"), &[o1, out_ack]);
    let h2 = b.gate(GateKind::MullerReset, format!("{name}.h2"), &[pad, out_ack]);
    let n1 = b.gate(GateKind::Nor, format!("{name}.n1"), &[h1, h2]);
    let out = b.internal_channel(format!("{name}.co"), &[h1, h2], Some(out_ack));
    QdiCell {
        out,
        ack_to_senders: n1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;
    use crate::netlist::Netlist;

    fn build_xor() -> (Netlist, Channel, Channel, QdiCell) {
        let mut b = NetlistBuilder::new("xor");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let out_ack = b.input_net("co_ack");
        let cell = dual_rail_xor(&mut b, "x", &a, &bb, out_ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        for &r in &cell.out.rails {
            b.mark_output(r);
        }
        let nl = b.finish().expect("valid xor cell");
        (nl, a, bb, cell)
    }

    #[test]
    fn xor_cell_matches_fig5_structure() {
        let (nl, _, _, _) = build_xor();
        // 4 C + 2 OR + 2 Cr + 1 NOR = 9 gates, as in Fig. 5.
        assert_eq!(nl.gate_count(), 9);
        let lv = graph::levelize(&nl).expect("acyclic");
        assert_eq!(lv.nc(), 4);
        assert_eq!(lv.gates_at(1).len(), 4); // M1..M4
        assert_eq!(lv.gates_at(2).len(), 2); // O1, O2
        assert_eq!(lv.gates_at(3).len(), 2); // H1, H2
        assert_eq!(lv.gates_at(4).len(), 1); // N1
    }

    #[test]
    fn xor_cell_ack_wiring() {
        let (nl, a, bb, cell) = build_xor();
        let n1 = nl.find_net("x.n1").expect("n1 net");
        assert_eq!(nl.channel(a.id).ack, Some(n1));
        assert_eq!(nl.channel(bb.id).ack, Some(n1));
        assert_eq!(cell.ack_to_senders, n1);
    }

    #[test]
    fn fn2_and_is_balanced_in_depth() {
        let mut b = NetlistBuilder::new("and");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let out_ack = b.input_net("ack");
        let cell = dual_rail_and(&mut b, "g", &a, &bb, out_ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        for &r in &cell.out.rails {
            b.mark_output(r);
        }
        let nl = b.finish().expect("valid");
        let lv = graph::levelize(&nl).expect("acyclic");
        // minterms, one OR per rail, latches, completion: 4 levels.
        assert_eq!(lv.nc(), 4);
        // Both rails have their OR at level 2.
        let or0 = nl.find_gate("g.or0").expect("or0");
        let or1 = nl.find_gate("g.or1").expect("or1");
        assert_eq!(lv.level_of(or0), 2);
        assert_eq!(lv.level_of(or1), 2);
    }

    #[test]
    #[should_panic(expected = "constant function")]
    fn fn2_rejects_constant() {
        let mut b = NetlistBuilder::new("const");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let out_ack = b.input_net("ack");
        let _ = dual_rail_fn2(&mut b, "g", &a, &bb, out_ack, [true, true, true, true]);
    }

    #[test]
    fn wchb_has_one_latch_per_rail() {
        let mut b = NetlistBuilder::new("buf");
        let a = b.input_channel("a", 4);
        let out_ack = b.input_net("ack");
        let cell = wchb_buffer(&mut b, "hb", &a, out_ack);
        b.connect_input_acks(&[a.id], cell.ack_to_senders);
        for &r in &cell.out.rails {
            b.mark_output(r);
        }
        let nl = b.finish().expect("valid");
        assert_eq!(nl.gate_count(), 5); // 4 Cr + 1 NOR
        assert_eq!(cell.out.arity(), 4);
    }

    #[test]
    fn or_tree_depths() {
        assert_eq!(or_tree_depth(1, 4), 1);
        assert_eq!(or_tree_depth(4, 4), 1);
        assert_eq!(or_tree_depth(5, 4), 2);
        assert_eq!(or_tree_depth(16, 4), 2);
        assert_eq!(or_tree_depth(17, 4), 3);
        assert_eq!(or_tree_depth(255, 4), 4);
    }

    #[test]
    fn minterm_plane_sizes() {
        let mut b = NetlistBuilder::new("mt");
        let chans: Vec<Channel> = (0..3)
            .map(|i| b.input_channel(format!("i{i}"), 2))
            .collect();
        let refs: Vec<&Channel> = chans.iter().collect();
        let minterms = minterm_plane(&mut b, "m", &refs);
        assert_eq!(minterms.len(), 8);
        for &m in &minterms {
            b.mark_output(m);
        }
        let nl = b.finish().expect("valid");
        // 3 channels: hi=1ch (rails pass through), lo=2ch -> 4 C, then 2*4=8 C.
        assert_eq!(nl.gate_count(), 12);
    }

    #[test]
    fn c_tree_single_net_passthrough() {
        let mut b = NetlistBuilder::new("ct");
        let a = b.input_net("a");
        let root = c_tree(&mut b, "c", &[a]);
        assert_eq!(root, a);
    }

    #[test]
    fn lut_identity_2bit() {
        // 2-bit identity LUT: out = in.
        let mut b = NetlistBuilder::new("lut");
        let chans: Vec<Channel> = (0..2)
            .map(|i| b.input_channel(format!("i{i}"), 2))
            .collect();
        let refs: Vec<&Channel> = chans.iter().collect();
        let out_ack = b.input_net("ack");
        let cells = dual_rail_lut(&mut b, "l", &refs, &[out_ack, out_ack], &[0, 1, 2, 3], 2);
        assert_eq!(cells.len(), 2);
        let ack = cells[0].ack_to_senders;
        b.connect_input_acks(&[chans[0].id, chans[1].id], ack);
        for c in &cells {
            for &r in &c.out.rails {
                b.mark_output(r);
            }
        }
        let nl = b.finish().expect("valid");
        assert!(nl.gate_count() > 8);
        assert!(graph::levelize(&nl).is_ok());
    }

    #[test]
    fn lut_or_trees_are_depth_matched() {
        // 3-input LUT with skewed group sizes (7 vs 1 minterms): the two
        // rails of the output must still sit at the same level.
        let mut b = NetlistBuilder::new("lut3");
        let chans: Vec<Channel> = (0..3)
            .map(|i| b.input_channel(format!("i{i}"), 2))
            .collect();
        let refs: Vec<&Channel> = chans.iter().collect();
        let out_ack = b.input_net("ack");
        let table: Vec<u64> = (0..8).map(|v| u64::from(v == 5)).collect();
        let cells = dual_rail_lut(&mut b, "l", &refs, &[out_ack], &table, 1);
        let ack = cells[0].ack_to_senders;
        b.connect_input_acks(&[chans[0].id, chans[1].id, chans[2].id], ack);
        for &r in &cells[0].out.rails {
            b.mark_output(r);
        }
        let nl = b.finish().expect("valid");
        let lv = graph::levelize(&nl).expect("acyclic");
        let h0 = nl.find_gate("l.b0.h0").expect("h0");
        let h1 = nl.find_gate("l.b0.h1").expect("h1");
        assert_eq!(lv.level_of(h0), lv.level_of(h1));
    }
}
