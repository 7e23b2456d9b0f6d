//! A line-oriented text interchange format for netlists.
//!
//! The format is deliberately simple — one object per line, order
//! independent apart from nets preceding their users — so generated
//! netlists can be diffed, versioned and fed to external tools:
//!
//! ```text
//! # qdi netlist v1
//! netlist xor
//! net a.r0 input cap=8
//! net x.m1 cap=8
//! gate x.m1 C in=a.r0,b.r0 out=x.m1 cpar=2.6 csc=0.9 pin=2.4 rdrv=8
//! channel a input rails=a.r0,a.r1 ack=x.n1
//! ```
//!
//! [`to_text`] and [`from_text`] round-trip every structural and
//! electrical property of a [`Netlist`].

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::channel::ChannelRole;
use crate::gate::{GateKind, GateParams};
use crate::netlist::{Netlist, NetlistBuilder};
use crate::{NetId, NetlistError};

/// Error produced while parsing the text format.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseNetlistError {
    /// 1-based line of the problem (0 for end-of-input problems).
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseNetlistError {}

impl From<NetlistError> for ParseNetlistError {
    fn from(err: NetlistError) -> Self {
        ParseNetlistError {
            line: 0,
            message: err.to_string(),
        }
    }
}

fn kind_from_mnemonic(s: &str) -> Option<GateKind> {
    Some(match s {
        "C" => GateKind::Muller,
        "Cr" => GateKind::MullerReset,
        "AND" => GateKind::And,
        "OR" => GateKind::Or,
        "NOR" => GateKind::Nor,
        "NAND" => GateKind::Nand,
        "XOR" => GateKind::Xor,
        "INV" => GateKind::Inv,
        "BUF" => GateKind::Buf,
        _ => return None,
    })
}

fn role_name(role: ChannelRole) -> &'static str {
    match role {
        ChannelRole::Input => "input",
        ChannelRole::Output => "output",
        ChannelRole::Internal => "internal",
    }
}

/// Serialises a netlist.
pub fn to_text(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# qdi netlist v1");
    let _ = writeln!(out, "netlist {}", netlist.name());
    for net in netlist.nets() {
        let mut line = format!("net {}", net.name);
        if net.is_primary_input {
            line.push_str(" input");
        }
        if net.is_primary_output {
            line.push_str(" output");
        }
        let _ = write!(line, " cap={}", net.routing_cap_ff);
        let _ = writeln!(out, "{line}");
    }
    for gate in netlist.gates() {
        let inputs: Vec<&str> = gate
            .inputs
            .iter()
            .map(|&n| netlist.net(n).name.as_str())
            .collect();
        let mut line = format!(
            "gate {} {} in={} out={}",
            gate.name,
            gate.kind.mnemonic(),
            inputs.join(","),
            netlist.net(gate.output).name
        );
        let p = &gate.params;
        let _ = write!(
            line,
            " cpar={} csc={} pin={} rdrv={}",
            p.cpar_ff, p.csc_ff, p.pin_cap_ff, p.drive_res_kohm
        );
        if let Some(block) = &gate.block {
            let _ = write!(line, " block={block}");
        }
        let _ = writeln!(out, "{line}");
    }
    for channel in netlist.channels() {
        let rails: Vec<&str> = channel
            .rails
            .iter()
            .map(|&n| netlist.net(n).name.as_str())
            .collect();
        let mut line = format!(
            "channel {} {} rails={}",
            channel.name,
            role_name(channel.role),
            rails.join(",")
        );
        if let Some(ack) = channel.ack {
            let _ = write!(line, " ack={}", netlist.net(ack).name);
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Parses a numeric attribute (a capacitance or drive resistance) that
/// must be finite and non-negative — the precondition
/// [`Netlist::set_routing_cap`] asserts — so a hostile value is a parse
/// error naming its line, never a panic further down.
fn parse_quantity(v: &str, what: &str, line: usize) -> Result<f64, ParseNetlistError> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
        _ => Err(ParseNetlistError {
            line,
            message: format!("bad {what} {v:?}: expected a finite value >= 0"),
        }),
    }
}

/// Parses the text format back into a netlist.
///
/// # Errors
///
/// Returns [`ParseNetlistError`] on the first malformed line, unknown
/// reference, non-finite or negative numeric attribute, or structural
/// validation failure.
pub fn from_text(text: &str) -> Result<Netlist, ParseNetlistError> {
    let err = |line: usize, message: String| ParseNetlistError { line, message };
    let mut builder: Option<NetlistBuilder> = None;
    let mut nets: HashMap<String, NetId> = HashMap::new();
    let mut outputs: Vec<NetId> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        let keyword = words.next().expect("nonempty line");
        match keyword {
            "netlist" => {
                // A second header would restart the builder under net ids
                // already handed out.
                if builder.is_some() {
                    return Err(err(line_no, "second netlist header".into()));
                }
                let name = words
                    .next()
                    .ok_or_else(|| err(line_no, "netlist needs a name".into()))?;
                builder = Some(NetlistBuilder::new(name));
            }
            "net" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(line_no, "net before netlist header".into()))?;
                let name = words
                    .next()
                    .ok_or_else(|| err(line_no, "net needs a name".into()))?;
                let mut is_input = false;
                let mut is_output = false;
                let mut cap: Option<f64> = None;
                for word in words {
                    if word == "input" {
                        is_input = true;
                    } else if word == "output" {
                        is_output = true;
                    } else if let Some(v) = word.strip_prefix("cap=") {
                        cap = Some(parse_quantity(v, "capacitance", line_no)?);
                    } else {
                        return Err(err(line_no, format!("unknown net attribute {word:?}")));
                    }
                }
                let id = if is_input {
                    b.input_net(name)
                } else {
                    b.net(name)
                };
                if is_output {
                    outputs.push(id);
                }
                nets.insert(name.to_owned(), id);
                let _ = cap; // applied in the second pass
            }
            "gate" | "channel" => {
                // Parsed in the second pass below; validate builder exists.
                if builder.is_none() {
                    return Err(err(line_no, format!("{keyword} before netlist header")));
                }
            }
            other => return Err(err(line_no, format!("unknown keyword {other:?}"))),
        }
    }
    let mut b = builder.ok_or_else(|| err(0, "missing netlist header".into()))?;

    // Second pass: gates and channels (now every net name resolves).
    let resolve = |nets: &HashMap<String, NetId>, name: &str, line_no: usize| {
        nets.get(name)
            .copied()
            .ok_or_else(|| err(line_no, format!("unknown net {name:?}")))
    };
    let mut caps: Vec<(NetId, f64)> = Vec::new();
    let mut gate_params: Vec<(String, GateParams)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        let mut words = line.split_whitespace();
        match words.next() {
            Some("net") => {
                let name = words.next().expect("validated in first pass");
                for word in words {
                    if let Some(v) = word.strip_prefix("cap=") {
                        caps.push((
                            resolve(&nets, name, line_no)?,
                            v.parse().expect("validated in first pass"),
                        ));
                    }
                }
            }
            Some("gate") => {
                let name = words
                    .next()
                    .ok_or_else(|| err(line_no, "gate needs a name".into()))?;
                let kind_word = words
                    .next()
                    .ok_or_else(|| err(line_no, "gate needs a kind".into()))?;
                let kind = kind_from_mnemonic(kind_word)
                    .ok_or_else(|| err(line_no, format!("unknown gate kind {kind_word:?}")))?;
                let mut inputs: Vec<NetId> = Vec::new();
                let mut output: Option<NetId> = None;
                let mut p = GateParams::for_kind(kind, 2);
                let mut block: Option<String> = None;
                for word in words {
                    if let Some(list) = word.strip_prefix("in=") {
                        for n in list.split(',') {
                            inputs.push(resolve(&nets, n, line_no)?);
                        }
                    } else if let Some(n) = word.strip_prefix("out=") {
                        output = Some(resolve(&nets, n, line_no)?);
                    } else if let Some(v) = word.strip_prefix("cpar=") {
                        p.cpar_ff = parse_quantity(v, "cpar", line_no)?;
                    } else if let Some(v) = word.strip_prefix("csc=") {
                        p.csc_ff = parse_quantity(v, "csc", line_no)?;
                    } else if let Some(v) = word.strip_prefix("pin=") {
                        p.pin_cap_ff = parse_quantity(v, "pin", line_no)?;
                    } else if let Some(v) = word.strip_prefix("rdrv=") {
                        p.drive_res_kohm = parse_quantity(v, "rdrv", line_no)?;
                    } else if let Some(v) = word.strip_prefix("block=") {
                        block = Some(v.to_owned());
                    } else {
                        return Err(err(line_no, format!("unknown gate attribute {word:?}")));
                    }
                }
                let output = output.ok_or_else(|| err(line_no, "gate needs out=".into()))?;
                if let Some(block) = &block {
                    b.push_block(block);
                }
                b.gate_into(kind, name, &inputs, output);
                if block.is_some() {
                    b.pop_block();
                }
                gate_params.push((name.to_owned(), p));
            }
            Some("channel") => {
                let name = words
                    .next()
                    .ok_or_else(|| err(line_no, "channel needs a name".into()))?;
                let role_word = words
                    .next()
                    .ok_or_else(|| err(line_no, "channel needs a role".into()))?;
                let role = match role_word {
                    "input" => ChannelRole::Input,
                    "output" => ChannelRole::Output,
                    "internal" => ChannelRole::Internal,
                    other => return Err(err(line_no, format!("unknown channel role {other:?}"))),
                };
                let mut rails: Vec<NetId> = Vec::new();
                let mut ack: Option<NetId> = None;
                for word in words {
                    if let Some(list) = word.strip_prefix("rails=") {
                        for n in list.split(',') {
                            rails.push(resolve(&nets, n, line_no)?);
                        }
                    } else if let Some(n) = word.strip_prefix("ack=") {
                        ack = Some(resolve(&nets, n, line_no)?);
                    } else {
                        return Err(err(line_no, format!("unknown channel attribute {word:?}")));
                    }
                }
                // Created as internal; the real role is restored on the
                // finished netlist below.
                let _ = role;
                let _ = b.internal_channel(name, &rails, ack);
            }
            _ => {}
        }
    }
    for net in outputs {
        b.mark_output(net);
    }
    let mut netlist = b.finish()?;
    for (net, cap) in caps {
        netlist.set_routing_cap(net, cap);
    }
    for (name, p) in gate_params {
        let id = netlist.find_gate(&name).expect("gate just created");
        *netlist.gate_params_mut(id) = p;
    }
    // Restore channel roles (the builder only offered internal_channel in
    // the loop above).
    let roles: Vec<(String, ChannelRole)> = text
        .lines()
        .filter_map(|l| {
            let mut w = l.split_whitespace();
            if w.next()? != "channel" {
                return None;
            }
            let name = w.next()?.to_owned();
            let role = match w.next()? {
                "input" => ChannelRole::Input,
                "output" => ChannelRole::Output,
                _ => ChannelRole::Internal,
            };
            Some((name, role))
        })
        .collect();
    for (name, role) in roles {
        if let Some(id) = netlist.find_channel(&name) {
            netlist.set_channel_role(id, role);
        }
    }
    Ok(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells;

    fn xor_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("xor");
        let a = b.input_channel("a", 2);
        let bb = b.input_channel("b", 2);
        let ack = b.input_net("ack");
        let cell = cells::dual_rail_xor(&mut b, "x", &a, &bb, ack);
        b.connect_input_acks(&[a.id, bb.id], cell.ack_to_senders);
        let _ = b.output_channel("co", &cell.out.rails.clone(), ack);
        b.finish().expect("valid")
    }

    #[test]
    fn round_trip_preserves_structure() {
        let mut original = xor_netlist();
        let m1 = original.find_net("x.m1").expect("net");
        original.set_routing_cap(m1, 13.5);
        let text = to_text(&original);
        let parsed = from_text(&text).expect("parses");
        assert_eq!(parsed.name(), original.name());
        assert_eq!(parsed.gate_count(), original.gate_count());
        assert_eq!(parsed.net_count(), original.net_count());
        assert_eq!(parsed.channel_count(), original.channel_count());
        let m1p = parsed.find_net("x.m1").expect("net survives");
        assert_eq!(parsed.net(m1p).routing_cap_ff, 13.5);
        // Channel roles and acks survive.
        for ch in original.channels() {
            let pc = parsed.channel(parsed.find_channel(&ch.name).expect("channel"));
            assert_eq!(pc.role, ch.role, "{}", ch.name);
            assert_eq!(pc.rails.len(), ch.rails.len());
            assert_eq!(pc.ack.is_some(), ch.ack.is_some());
        }
        // Serialising again gives identical text (canonical form).
        assert_eq!(to_text(&parsed), text);
    }

    #[test]
    fn rejects_unknown_keyword() {
        let err = from_text("netlist t\nfrobnicate x\n").expect_err("bad keyword");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("frobnicate"));
    }

    #[test]
    fn rejects_unknown_net_reference() {
        let text = "netlist t\nnet a input cap=8\ngate g BUF in=missing out=a\n";
        let err = from_text(text).expect_err("unknown net");
        assert!(err.message.contains("missing"));
    }

    #[test]
    fn rejects_second_header() {
        // A repeated header would restart the builder under net ids the
        // first header already handed out.
        let text = "netlist t\nnet a input cap=8\nnetlist t\ngate g BUF in=a out=a\n";
        let err = from_text(text).expect_err("second header");
        assert_eq!(err.line, 3);
        assert!(err.message.contains("second netlist header"));
    }

    #[test]
    fn rejects_missing_header() {
        let err = from_text("net a input cap=8\n").expect_err("no header");
        assert!(err.message.contains("netlist"));
    }

    #[test]
    fn rejects_non_finite_and_negative_quantities() {
        let text = to_text(&xor_netlist());
        // `text` with word `w` of line `idx` set to `attr` + `value`.
        let mutate = |idx: usize, w: usize, attr: &str, value: &str| -> String {
            let lines: Vec<String> = text
                .lines()
                .enumerate()
                .map(|(i, line)| {
                    let mut words: Vec<String> =
                        line.split_whitespace().map(str::to_owned).collect();
                    if i == idx {
                        words[w] = format!("{attr}{value}");
                    }
                    words.join(" ")
                })
                .collect();
            lines.join("\n")
        };
        // Every numeric attribute of every line, replaced by each hostile
        // value: a classified error naming that line, never a panic. Zero
        // stays legal (an unloaded net, an ideal driver).
        let attrs = ["cap=", "cpar=", "csc=", "pin=", "rdrv="];
        let hostile = [
            "NaN",
            "nan",
            "inf",
            "-inf",
            "+infinity",
            "-5",
            "-0.5",
            "1e999",
        ];
        let mut cases = 0;
        for (idx, line) in text.lines().enumerate() {
            for (w, word) in line.split_whitespace().enumerate() {
                let Some(attr) = attrs.iter().find(|a| word.starts_with(*a)) else {
                    continue;
                };
                for bad in hostile {
                    let err = from_text(&mutate(idx, w, attr, bad)).expect_err(bad);
                    assert_eq!(err.line, idx + 1, "{err}");
                    assert!(err.message.contains(bad), "{err}");
                    cases += 1;
                }
                from_text(&mutate(idx, w, attr, "0")).expect("zero is a legal quantity");
            }
        }
        assert!(cases > 100, "only {cases} mutations");
    }

    #[test]
    fn parsed_netlist_still_simulates_structurally() {
        let original = xor_netlist();
        let parsed = from_text(&to_text(&original)).expect("parses");
        // The graph analysis sees the same structure.
        let lv = crate::graph::levelize(&parsed).expect("acyclic");
        assert_eq!(lv.nc(), 4);
    }
}
