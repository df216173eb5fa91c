//! Topology graphs and their per-run channel realizations.
//!
//! A [`TopologyGraph`] is the *declarative* description of a network:
//! node ids plus directed/symmetric links, each tagged with a
//! [`LinkClass`] naming the gain regime it draws from. Realizing a
//! graph ([`TopologyGraph::realize`]) rolls the per-run channel dice —
//! one gain and independent phases per link — producing a [`Topology`]
//! the engine runs against, so 40 runs sample 40 channel realizations
//! exactly as the testbed's 40 repetitions did (§11.4).
//!
//! The paper's three §11 testbeds are canonical graphs:
//!
//! * **Alice-Bob** (Fig. 1): two endpoints out of each other's radio
//!   range, one router between them.
//! * **Chain** (Fig. 2): N1 → N2 → N3 → N4; only adjacent nodes are in
//!   range (N4 cannot hear N1 — the property ANC exploits).
//! * **"X"** (Fig. 11): N1→N4 and N3→N2 cross at router N5; N2
//!   overhears N1 and N4 overhears N3 over weaker side links, and each
//!   receiver also picks up *weak* interference from the far sender —
//!   the imperfect-overhearing effect §11.5 blames for the X
//!   topology's higher BER tail.
//!
//! [`TopologyGraph::parking_lot`] generalizes the chain to any relay
//! count, and the scenario layer builds asymmetric-X and random-mesh
//! graphs on the same primitives.

use anc_channel::{ImpairmentSpec, Link};
use anc_dsp::DspRng;
use anc_frame::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

pub use anc_netcode::schedule::nodes;

/// Which canonical paper topology (the §11 testbeds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Fig. 1: Alice ↔ router ↔ Bob.
    AliceBob,
    /// Fig. 2: the 3-hop chain.
    Chain,
    /// Fig. 11: two flows crossing at a router.
    X,
}

/// One directed link entry.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The channel.
    pub link: Link,
}

/// Channel-draw parameters: the gain regimes links draw from, uniform
/// per run. One serializable type shared by run configs, graphs, and
/// experiment sweeps.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ChannelDraw {
    /// Main-link amplitude gain range (uniform draw).
    pub gain: (f64, f64),
    /// Overhearing side-link gain range (X topology).
    pub overhear_gain: (f64, f64),
    /// Weak cross-interference gain range (X topology far senders).
    pub weak_gain: (f64, f64),
}

impl Default for ChannelDraw {
    fn default() -> Self {
        ChannelDraw {
            gain: (0.7, 1.0),
            overhear_gain: (0.55, 0.85),
            weak_gain: (0.12, 0.3),
        }
    }
}

/// Which gain regime a graph link draws from at realization time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkClass {
    /// A main traffic link ([`ChannelDraw::gain`]).
    Main,
    /// An overhearing side link ([`ChannelDraw::overhear_gain`]).
    Overhear,
    /// Weak cross-interference ([`ChannelDraw::weak_gain`]).
    Weak,
    /// An explicit gain range, independent of the run's `ChannelDraw`
    /// (distance-derived mesh links, asymmetric-X overrides).
    Custom {
        /// Lower gain bound.
        lo: f64,
        /// Upper gain bound.
        hi: f64,
    },
}

impl LinkClass {
    /// The gain range this class draws from under `draw`.
    pub fn range(&self, draw: &ChannelDraw) -> (f64, f64) {
        match self {
            LinkClass::Main => draw.gain,
            LinkClass::Overhear => draw.overhear_gain,
            LinkClass::Weak => draw.weak_gain,
            LinkClass::Custom { lo, hi } => (*lo, *hi),
        }
    }
}

// The vendored serde shim derives only plain structs, so the enum is
// lowered by hand: a tag string plus the custom bounds when present.
impl Serialize for LinkClass {
    fn to_value(&self) -> serde::Value {
        let mut obj = std::collections::BTreeMap::new();
        let tag = match self {
            LinkClass::Main => "main",
            LinkClass::Overhear => "overhear",
            LinkClass::Weak => "weak",
            LinkClass::Custom { lo, hi } => {
                obj.insert("lo".to_string(), serde::Value::Number(*lo));
                obj.insert("hi".to_string(), serde::Value::Number(*hi));
                "custom"
            }
        };
        obj.insert("class".to_string(), serde::Value::String(tag.to_string()));
        serde::Value::Object(obj)
    }
}

impl Deserialize for LinkClass {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Object(obj) = v else {
            return Err(serde::Error::type_mismatch("object", v));
        };
        let tag = match obj.get("class") {
            Some(serde::Value::String(s)) => s.as_str(),
            _ => return Err(serde::Error::missing_field("class")),
        };
        let num = |key: &str| -> Result<f64, serde::Error> {
            match obj.get(key) {
                Some(serde::Value::Number(n)) => Ok(*n),
                _ => Err(serde::Error::missing_field(key)),
            }
        };
        match tag {
            "main" => Ok(LinkClass::Main),
            "overhear" => Ok(LinkClass::Overhear),
            "weak" => Ok(LinkClass::Weak),
            "custom" => {
                let (lo, hi) = (num("lo")?, num("hi")?);
                // Gain bounds feed `uniform_range(lo, hi)` at
                // realization: inverted, negative, or non-finite
                // bounds would produce silently-wrong channel draws,
                // so reject them at the serialization boundary.
                if !(lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi) {
                    return Err(serde::Error::custom(format!(
                        "custom link class wants finite 0 <= lo <= hi, got lo={lo} hi={hi}"
                    )));
                }
                Ok(LinkClass::Custom { lo, hi })
            }
            other => Err(serde::Error::custom(format!("unknown link class {other}"))),
        }
    }
}

/// One declarative link of a [`TopologyGraph`].
#[derive(Debug, Clone, Copy, Serialize)]
pub struct GraphLink {
    /// Transmitting node (or one end, when symmetric).
    pub from: NodeId,
    /// Receiving node (or the other end).
    pub to: NodeId,
    /// Gain regime drawn at realization time.
    pub class: LinkClass,
    /// Symmetric links share one gain draw both ways (reciprocal
    /// attenuation, independent phases — a line-of-sight model);
    /// directed links exist one way only.
    pub symmetric: bool,
}

impl GraphLink {
    /// A symmetric (reciprocal-gain) link.
    pub fn sym(a: NodeId, b: NodeId, class: LinkClass) -> GraphLink {
        GraphLink {
            from: a,
            to: b,
            class,
            symmetric: true,
        }
    }

    /// A one-way link.
    pub fn dir(from: NodeId, to: NodeId, class: LinkClass) -> GraphLink {
        GraphLink {
            from,
            to,
            class,
            symmetric: false,
        }
    }
}

// Hand-written for the retired per-link `impairment` override: graphs
// saved while it existed wrote `"impairment": null`, which still
// loads; a set override is an error naming the key, so a saved graph
// never silently runs a different channel.
impl Deserialize for GraphLink {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Object(obj) = v else {
            return Err(serde::Error::type_mismatch("object", v));
        };
        let get = |key: &str| obj.get(key).ok_or_else(|| serde::Error::missing_field(key));
        if !matches!(obj.get("impairment"), None | Some(serde::Value::Null)) {
            return Err(serde::Error::custom(
                "impairment: per-link impairment overrides are retired; set the scenario's impairments",
            ));
        }
        Ok(GraphLink {
            from: Deserialize::from_value(get("from")?)?,
            to: Deserialize::from_value(get("to")?)?,
            class: Deserialize::from_value(get("class")?)?,
            symmetric: Deserialize::from_value(get("symmetric")?)?,
        })
    }
}

/// A declarative topology: N nodes and an arbitrary directed link
/// matrix, realized into per-run channels by [`Self::realize`].
#[derive(Debug, Clone, Serialize)]
pub struct TopologyGraph {
    /// Human-readable topology name (reports, artifacts).
    pub name: String,
    /// All node ids, in a stable order. This order pins the engine's
    /// per-node RNG stream assignment, so it is part of a scenario's
    /// seeded identity.
    pub node_ids: Vec<NodeId>,
    /// The declarative link set, realized in listed order (also part
    /// of the seeded identity: each link consumes gain/phase draws).
    pub links: Vec<GraphLink>,
}

// Hand-written for the retired node geometry: graphs saved while it
// existed may carry `"positions": null` (or no key), which still
// loads; set positions are an error naming the key, because a receiver
// now hears every declared link and an old range may have gated one
// out.
impl Deserialize for TopologyGraph {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Object(obj) = v else {
            return Err(serde::Error::type_mismatch("object", v));
        };
        let get = |key: &str| obj.get(key).ok_or_else(|| serde::Error::missing_field(key));
        if !matches!(obj.get("positions"), None | Some(serde::Value::Null)) {
            return Err(serde::Error::custom(
                "positions: node geometry is retired; a receiver hears exactly its declared links",
            ));
        }
        Ok(TopologyGraph {
            name: Deserialize::from_value(get("name")?)?,
            node_ids: Deserialize::from_value(get("node_ids")?)?,
            links: Deserialize::from_value(get("links")?)?,
        })
    }
}

impl TopologyGraph {
    /// Draws one channel realization of this graph.
    pub fn realize(&self, rng: &mut DspRng, draw: &ChannelDraw) -> Topology {
        let mut t = Topology {
            name: self.name.clone(),
            node_ids: self.node_ids.clone(),
            links: BTreeMap::new(),
        };
        for l in &self.links {
            let range = l.class.range(draw);
            if l.symmetric {
                t.add_sym(l.from, l.to, rng, range);
            } else {
                t.add_dir(l.from, l.to, rng, range);
            }
        }
        t
    }

    /// Resolves the effective per-direction impairment table under a
    /// scenario-level `default`: `(from, to) → spec` for every declared
    /// direction, when the default enables a **link-level** process
    /// (phase re-draw, Rayleigh fading); otherwise the table is empty,
    /// so the engine's hot path skips it entirely. TX processes (CFO,
    /// timing jitter) are per-sender and resolve from the default
    /// directly.
    pub fn link_impairments(
        &self,
        default: Option<ImpairmentSpec>,
    ) -> HashMap<(NodeId, NodeId), ImpairmentSpec> {
        let mut out = HashMap::new();
        let Some(spec) = default.filter(ImpairmentSpec::affects_link) else {
            return out;
        };
        for l in &self.links {
            out.insert((l.from, l.to), spec);
            if l.symmetric {
                out.insert((l.to, l.from), spec);
            }
        }
        out
    }

    /// `true` when a (directed) link is declared from `from` to `to`.
    pub fn connects(&self, from: NodeId, to: NodeId) -> bool {
        self.links.iter().any(|l| {
            (l.from == from && l.to == to) || (l.symmetric && l.from == to && l.to == from)
        })
    }

    /// The Fig.-1 Alice-Bob graph.
    pub fn alice_bob() -> TopologyGraph {
        use nodes::{ALICE, BOB, ROUTER};
        TopologyGraph {
            name: "alice_bob".to_string(),
            node_ids: vec![ALICE, BOB, ROUTER],
            links: vec![
                GraphLink::sym(ALICE, ROUTER, LinkClass::Main),
                GraphLink::sym(BOB, ROUTER, LinkClass::Main),
                // No Alice↔Bob link: out of range by construction.
            ],
        }
    }

    /// The Fig.-2 chain graph.
    pub fn chain() -> TopologyGraph {
        use nodes::{N1, N2, N3, N4};
        TopologyGraph {
            name: "chain".to_string(),
            node_ids: vec![N1, N2, N3, N4],
            links: vec![
                GraphLink::sym(N1, N2, LinkClass::Main),
                GraphLink::sym(N2, N3, LinkClass::Main),
                GraphLink::sym(N3, N4, LinkClass::Main),
                // Non-adjacent nodes are out of range (no links) — in
                // particular N1 ↛ N4 (the paper's premise for Fig. 2).
            ],
        }
    }

    /// The Fig.-11 "X" graph.
    pub fn x() -> TopologyGraph {
        use nodes::{ROUTER, X1, X2, X3, X4};
        let mut links: Vec<GraphLink> = [X1, X2, X3, X4]
            .iter()
            .map(|&n| GraphLink::sym(n, ROUTER, LinkClass::Main))
            .collect();
        // Overhearing side links (§11.5): N2 hears N1, N4 hears N3.
        links.push(GraphLink::dir(X1, X2, LinkClass::Overhear));
        links.push(GraphLink::dir(X3, X4, LinkClass::Overhear));
        // Weak cross-interference: the far sender is faintly audible,
        // which is what makes overhearing imperfect.
        links.push(GraphLink::dir(X3, X2, LinkClass::Weak));
        links.push(GraphLink::dir(X1, X4, LinkClass::Weak));
        TopologyGraph {
            name: "x".to_string(),
            node_ids: vec![X1, X2, X3, X4, ROUTER],
            links,
        }
    }

    /// A parking-lot chain with `relays` intermediate nodes (the Fig.-2
    /// chain generalized to any length): source, `relays` relays, then
    /// the destination, adjacent nodes linked symmetrically. Node ids
    /// follow the chain block (`nodes::N1` onward), so `relays = 2` is
    /// exactly the paper chain.
    ///
    /// # Panics
    /// Panics if `relays == 0` (that is a single hop, not a chain) or
    /// if the id block would overflow `u8`.
    pub fn parking_lot(relays: usize) -> TopologyGraph {
        assert!(relays >= 1, "a parking lot needs at least one relay");
        let first = nodes::N1 as usize;
        assert!(first + relays < u8::MAX as usize, "id block overflow");
        let ids: Vec<NodeId> = (0..relays + 2).map(|i| (first + i) as NodeId).collect();
        TopologyGraph {
            name: format!("parking_lot_{relays}"),
            node_ids: ids.clone(),
            links: ids
                .windows(2)
                .map(|w| GraphLink::sym(w[0], w[1], LinkClass::Main))
                .collect(),
        }
    }
}

/// A realized topology: nodes plus the directed link table with drawn
/// gains and phases.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Name of the graph this realization came from.
    pub name: String,
    /// All node ids, in a stable order.
    pub node_ids: Vec<NodeId>,
    /// Ordered by `(from, to)`, so every walk over the links (the
    /// fault layer's stuck-carrier tones) is reproducible.
    links: BTreeMap<(NodeId, NodeId), Link>,
}

impl Topology {
    fn add_sym(&mut self, a: NodeId, b: NodeId, rng: &mut DspRng, range: (f64, f64)) {
        // Reciprocal gain (same attenuation both ways), independent
        // phases — a reasonable line-of-sight model.
        let gain = rng.uniform_range(range.0, range.1);
        self.links.insert((a, b), Link::new(gain, rng.phase(), 0.0));
        self.links.insert((b, a), Link::new(gain, rng.phase(), 0.0));
    }

    fn add_dir(&mut self, a: NodeId, b: NodeId, rng: &mut DspRng, range: (f64, f64)) {
        let gain = rng.uniform_range(range.0, range.1);
        self.links.insert((a, b), Link::new(gain, rng.phase(), 0.0));
    }

    /// The link from `from` to `to`, if the nodes are in range.
    pub fn link(&self, from: NodeId, to: NodeId) -> Option<&Link> {
        self.links.get(&(from, to))
    }

    /// `true` when `to` can hear `from` at all.
    pub fn connected(&self, from: NodeId, to: NodeId) -> bool {
        self.links.contains_key(&(from, to))
    }

    /// All directed links, ascending by `(from, to)`.
    pub fn links(&self) -> impl Iterator<Item = LinkSpec> + '_ {
        self.links
            .iter()
            .map(|(&(from, to), &link)| LinkSpec { from, to, link })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodes::*;

    fn rng() -> DspRng {
        DspRng::seed_from(42)
    }

    #[test]
    fn alice_bob_shape() {
        let t = TopologyGraph::alice_bob().realize(&mut rng(), &ChannelDraw::default());
        assert!(t.connected(ALICE, ROUTER));
        assert!(t.connected(ROUTER, ALICE));
        assert!(t.connected(BOB, ROUTER));
        assert!(!t.connected(ALICE, BOB), "Alice must not hear Bob");
        assert!(!t.connected(BOB, ALICE));
    }

    #[test]
    fn chain_shape() {
        let t = TopologyGraph::chain().realize(&mut rng(), &ChannelDraw::default());
        assert!(t.connected(N1, N2));
        assert!(t.connected(N2, N3));
        assert!(t.connected(N3, N4));
        assert!(t.connected(N3, N2), "N2 must hear N3 (the collision)");
        assert!(!t.connected(N1, N3));
        assert!(!t.connected(N1, N4), "N4 must not hear N1 (Fig. 2)");
        assert!(!t.connected(N2, N4));
    }

    #[test]
    fn x_shape() {
        let t = TopologyGraph::x().realize(&mut rng(), &ChannelDraw::default());
        for n in [X1, X2, X3, X4] {
            assert!(t.connected(n, ROUTER));
            assert!(t.connected(ROUTER, n));
        }
        assert!(t.connected(X1, X2), "overhearing link");
        assert!(t.connected(X3, X4), "overhearing link");
        assert!(t.connected(X3, X2), "weak interference link");
        assert!(t.connected(X1, X4), "weak interference link");
        assert!(!t.connected(X1, X3));
        assert!(!t.connected(X2, X4));
    }

    #[test]
    fn gains_within_ranges() {
        let draw = ChannelDraw::default();
        let t = TopologyGraph::x().realize(&mut rng(), &draw);
        let main = t.link(X1, ROUTER).unwrap();
        assert!(main.gain >= draw.gain.0 && main.gain <= draw.gain.1);
        let over = t.link(X1, X2).unwrap();
        assert!(over.gain >= draw.overhear_gain.0 && over.gain <= draw.overhear_gain.1);
        let weak = t.link(X3, X2).unwrap();
        assert!(weak.gain >= draw.weak_gain.0 && weak.gain <= draw.weak_gain.1);
        assert!(
            weak.gain < over.gain,
            "interference weaker than overhearing"
        );
    }

    #[test]
    fn symmetric_links_share_gain() {
        let t = TopologyGraph::alice_bob().realize(&mut rng(), &ChannelDraw::default());
        let ar = t.link(ALICE, ROUTER).unwrap();
        let ra = t.link(ROUTER, ALICE).unwrap();
        assert_eq!(ar.gain, ra.gain);
    }

    #[test]
    fn different_seeds_different_channels() {
        let d = ChannelDraw::default();
        let t1 = TopologyGraph::alice_bob().realize(&mut DspRng::seed_from(1), &d);
        let t2 = TopologyGraph::alice_bob().realize(&mut DspRng::seed_from(2), &d);
        assert_ne!(
            t1.link(ALICE, ROUTER).unwrap().gain,
            t2.link(ALICE, ROUTER).unwrap().gain
        );
    }

    #[test]
    fn links_iterator_counts() {
        let t = TopologyGraph::chain().realize(&mut rng(), &ChannelDraw::default());
        assert_eq!(t.links().count(), 6); // 3 symmetric pairs
    }

    #[test]
    fn parking_lot_two_relays_is_the_paper_chain() {
        let g = TopologyGraph::parking_lot(2);
        assert_eq!(g.node_ids, vec![N1, N2, N3, N4]);
        let d = ChannelDraw::default();
        // Identical graph → identical realization from the same seed.
        let a = g.realize(&mut DspRng::seed_from(9), &d);
        let b = TopologyGraph::chain().realize(&mut DspRng::seed_from(9), &d);
        assert_eq!(a.link(N1, N2).unwrap().gain, b.link(N1, N2).unwrap().gain);
    }

    #[test]
    fn parking_lot_scales() {
        let g = TopologyGraph::parking_lot(5);
        assert_eq!(g.node_ids.len(), 7);
        let t = g.realize(&mut rng(), &ChannelDraw::default());
        // Adjacent in range, two-apart out of range.
        for w in g.node_ids.windows(2) {
            assert!(t.connected(w[0], w[1]));
            assert!(t.connected(w[1], w[0]));
        }
        for w in g.node_ids.windows(3) {
            assert!(!t.connected(w[0], w[2]));
        }
    }

    #[test]
    fn graph_connects_respects_direction() {
        let g = TopologyGraph::x();
        assert!(g.connects(X1, X2));
        assert!(!g.connects(X2, X1), "overhearing is one-way");
        assert!(g.connects(ROUTER, X3), "symmetric works both ways");
    }

    #[test]
    fn link_class_serde_roundtrip() {
        use serde::{Deserialize as _, Serialize as _};
        for class in [
            LinkClass::Main,
            LinkClass::Overhear,
            LinkClass::Weak,
            LinkClass::Custom { lo: 0.2, hi: 0.4 },
        ] {
            let v = class.to_value();
            let back = LinkClass::from_value(&v).unwrap();
            assert_eq!(back, class);
        }
    }

    #[test]
    fn custom_link_class_rejects_bad_bounds() {
        use serde::{Deserialize as _, Serialize as _};
        let make = |lo: f64, hi: f64| {
            let mut v = LinkClass::Custom { lo: 0.1, hi: 0.2 }.to_value();
            if let serde::Value::Object(obj) = &mut v {
                obj.insert("lo".to_string(), serde::Value::Number(lo));
                obj.insert("hi".to_string(), serde::Value::Number(hi));
            }
            LinkClass::from_value(&v)
        };
        // Inverted, negative, and non-finite bounds are all rejected.
        assert!(make(0.5, 0.2).is_err(), "inverted");
        assert!(make(-0.1, 0.2).is_err(), "negative lo");
        assert!(make(f64::NAN, 0.2).is_err(), "NaN lo");
        assert!(make(0.1, f64::NAN).is_err(), "NaN hi");
        assert!(make(0.1, f64::INFINITY).is_err(), "infinite hi");
        // Valid bounds (including degenerate lo == hi) still load.
        assert_eq!(
            make(0.3, 0.3).unwrap(),
            LinkClass::Custom { lo: 0.3, hi: 0.3 }
        );
    }

    #[test]
    fn links_come_back_in_ascending_order() {
        // Two realizations list the same (from, to) pairs in the same
        // ascending order, so walks over them (stuck-carrier tones)
        // sum in one order on every run.
        let d = ChannelDraw::default();
        let pairs = |seed| -> Vec<(NodeId, NodeId)> {
            TopologyGraph::x()
                .realize(&mut DspRng::seed_from(seed), &d)
                .links()
                .map(|l| (l.from, l.to))
                .collect()
        };
        let (a, b) = (pairs(1), pairs(2));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "{a:?}");
    }

    #[test]
    fn positions_serde_roundtrip_and_back_compat() {
        use serde::{Deserialize as _, Serialize as _};
        // Graphs saved while node geometry existed carry `positions`:
        // absent or `null` loads to the same graph; a set value is an
        // error that names the key.
        let g = TopologyGraph::chain();
        let load = |positions: Option<serde::Value>| {
            let serde::Value::Object(mut obj) = g.to_value() else {
                panic!("TopologyGraph is a JSON object");
            };
            assert!(!obj.contains_key("positions"));
            if let Some(p) = positions {
                obj.insert("positions".to_string(), p);
            }
            TopologyGraph::from_value(&serde::Value::Object(obj))
        };
        for saved in [None, Some(serde::Value::Null)] {
            let back = load(saved).unwrap();
            assert_eq!(back.node_ids, g.node_ids);
            assert_eq!(back.links.len(), g.links.len());
        }
        let coords = serde::Value::Array(vec![serde::Value::Number(0.0); 4]);
        let set = [("coords", coords), ("range", serde::Value::Number(1.5))]
            .map(|(k, v)| (k.to_string(), v));
        let err = load(Some(serde::Value::Object(set.into()))).unwrap_err();
        assert!(err.to_string().contains("positions"), "{err}");
    }

    #[test]
    fn link_impairment_resolution() {
        // No default: no link-level process anywhere.
        assert!(TopologyGraph::alice_bob().link_impairments(None).is_empty());
        // A link-level default covers every declared direction.
        let def = ImpairmentSpec::phase_redraw();
        let t = TopologyGraph::alice_bob().link_impairments(Some(def));
        assert_eq!(t.len(), 4);
        assert_eq!(t[&(ALICE, ROUTER)], def);
        assert_eq!(t[&(ROUTER, BOB)], def);
        // A TX-only default has no link-level effect.
        let tx_only = ImpairmentSpec::default().with_cfo(0.01);
        assert!(TopologyGraph::chain()
            .link_impairments(Some(tx_only))
            .is_empty());
    }

    #[test]
    fn pre_impairment_graph_json_still_loads() {
        use serde::{Deserialize as _, Serialize as _};
        let g = TopologyGraph::x();
        let mut v = g.to_value();
        // Strip the `impairment` key from every link — the JSON shape
        // published before the Monte Carlo layer existed.
        if let serde::Value::Object(obj) = &mut v {
            if let Some(serde::Value::Array(links)) = obj.get_mut("links") {
                for l in links {
                    if let serde::Value::Object(lo) = l {
                        lo.remove("impairment");
                    }
                }
            }
        }
        let back = TopologyGraph::from_value(&v).unwrap();
        assert_eq!(back.links.len(), g.links.len());
    }

    #[test]
    fn graph_link_impairment_serde_roundtrip() {
        // Graphs saved while links carried an impairment override wrote
        // `"impairment": null`; those load. A set override is an error
        // that names the key.
        let json = serde_json::to_string(&GraphLink::sym(1, 2, LinkClass::Main)).unwrap();
        let body = json.strip_suffix('}').expect("GraphLink is a JSON object");
        let saved = |imp: &str| format!("{body},\"impairment\":{imp}}}");
        let back: GraphLink = serde_json::from_str(&saved("null")).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        let set = serde_json::to_string(&ImpairmentSpec::rayleigh_fading()).unwrap();
        let err = serde_json::from_str::<GraphLink>(&saved(&set)).unwrap_err();
        assert!(err.to_string().contains("impairment"), "{err}");
    }

    #[test]
    fn graph_serde_roundtrip() {
        let g = TopologyGraph::x();
        let json = serde_json::to_string(&g).unwrap();
        let back: TopologyGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, g.name);
        assert_eq!(back.node_ids, g.node_ids);
        assert_eq!(back.links.len(), g.links.len());
        assert!(back.connects(X1, X2));
    }
}
