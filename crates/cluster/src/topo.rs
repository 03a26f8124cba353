//! Explicit interconnection-network graphs: switches, ports, and cables.
//!
//! The calibrated [`bband_fabric::NetworkModel`] knows one path shape, the
//! testbed's single switch, as a *formula*. Multi-hop and cluster-scale
//! runs need the real thing: a graph whose ports can hold buffers and
//! busy horizons. Two classic scale-out topologies are built here:
//!
//! * **k-ary n-tree fat tree** — `k^n` hosts under `n` levels of
//!   `k^(n-1)` switches, each with `k` down and `k` up ports. Routing is
//!   destination-based (D-mod-k): ascend to the lowest common ancestor
//!   level choosing up ports by the destination's digits, then descend
//!   along the destination's column. Every route is minimal and follows
//!   the up*/down* order, which is deadlock-free by construction.
//! * **dragonfly** — `g = a·h + 1` groups of `a` routers, `p` hosts per
//!   router, `h` global links per router, one global link between every
//!   pair of groups (the canonical balanced configuration). Routing is
//!   minimal: local–global–local (≤ 3 switch-to-switch hops).

use serde::Serialize;

/// Which builder produced a [`FabricGraph`], with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TopologyKind {
    /// k-ary n-tree: `radix^levels` hosts.
    FatTree { radix: u32, levels: u32 },
    /// Balanced dragonfly: `a` routers/group, `p` hosts/router, `h`
    /// global links/router, `a·h + 1` groups.
    Dragonfly {
        routers: u32,
        hosts_per_router: u32,
        globals_per_router: u32,
    },
}

/// What a switch port is cabled to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortTarget {
    /// An end host (NIC); the port is the host's injection/ejection link.
    Host(u32),
    /// Port `port` of switch `sw` at the far end of an inter-switch cable.
    Switch { sw: u32, port: u32 },
}

/// One switch traversal of a route: leave switch `sw` through `port`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteHop {
    pub sw: u32,
    pub port: u32,
}

/// An explicit switch/port/cable graph plus deterministic routing.
#[derive(Debug, Clone)]
pub struct FabricGraph {
    pub kind: TopologyKind,
    /// Attached hosts (= NICs = ranks at full population).
    pub hosts: u32,
    /// Per-switch port tables: `ports[sw][port]` is the far end.
    pub ports: Vec<Vec<PortTarget>>,
    /// Prefix sums of port counts: global port id = `port_base[sw] + port`.
    pub port_base: Vec<u32>,
    /// Total ports across all switches.
    pub total_ports: u32,
}

/// `base^exp` with overflow panic (topology parameters are small).
fn pow_u32(base: u32, exp: u32) -> u32 {
    base.checked_pow(exp).expect("topology too large")
}

impl FabricGraph {
    /// Build a k-ary n-tree: `radix^levels` hosts, `levels` switch stages
    /// of `radix^(levels-1)` switches each. Ports `0..radix` lead down,
    /// `radix..2*radix` lead up (absent on the top stage).
    pub fn fat_tree(radix: u32, levels: u32) -> Self {
        assert!(radix >= 2, "fat tree needs radix >= 2");
        assert!(levels >= 1, "fat tree needs at least one stage");
        let k = radix;
        let n = levels;
        let width = pow_u32(k, n - 1); // switches per stage
        let hosts = pow_u32(k, n);
        let id = |level: u32, w: u32| level * width + w;
        let digit = |w: u32, i: u32| (w / pow_u32(k, i)) % k;
        let set_digit =
            |w: u32, i: u32, d: u32| w - digit(w, i) * pow_u32(k, i) + d * pow_u32(k, i);
        let mut ports = Vec::with_capacity((n * width) as usize);
        for level in 0..n {
            for w in 0..width {
                let has_up = level + 1 < n;
                let mut table = Vec::with_capacity(if has_up { 2 * k } else { k } as usize);
                // Down ports 0..k.
                for j in 0..k {
                    if level == 0 {
                        table.push(PortTarget::Host(w * k + j));
                    } else {
                        // The edge to stage `level-1` differs in digit
                        // `level-1`; on the lower switch it is up port
                        // `k + (our digit level-1)`.
                        table.push(PortTarget::Switch {
                            sw: id(level - 1, set_digit(w, level - 1, j)),
                            port: k + digit(w, level - 1),
                        });
                    }
                }
                // Up ports k..2k.
                if has_up {
                    for c in 0..k {
                        table.push(PortTarget::Switch {
                            sw: id(level + 1, set_digit(w, level, c)),
                            port: digit(w, level),
                        });
                    }
                }
                ports.push(table);
            }
        }
        FabricGraph::finish(TopologyKind::FatTree { radix, levels }, hosts, ports)
    }

    /// Build a balanced dragonfly: `a·h + 1` groups, each an `a`-router
    /// complete graph with `p` hosts per router; exactly one global link
    /// between every pair of groups. Router ports: `0..p` hosts,
    /// `p..p+a-1` local, `p+a-1..p+a-1+h` global.
    pub fn dragonfly(routers: u32, hosts_per_router: u32, globals_per_router: u32) -> Self {
        let (a, p, h) = (routers, hosts_per_router, globals_per_router);
        assert!(a >= 1 && p >= 1 && h >= 1, "dragonfly needs a,p,h >= 1");
        let g = a * h + 1; // groups: each pair joined by one global link
        let hosts = g * a * p;
        let local_port = |r: u32, peer: u32| p + if peer < r { peer } else { peer - 1 };
        let mut ports = Vec::with_capacity((g * a) as usize);
        for grp in 0..g {
            for r in 0..a {
                let mut table = Vec::with_capacity((p + (a - 1) + h) as usize);
                for j in 0..p {
                    table.push(PortTarget::Host((grp * a + r) * p + j));
                }
                for peer in 0..a {
                    if peer != r {
                        table.push(PortTarget::Switch {
                            sw: grp * a + peer,
                            port: local_port(peer, r),
                        });
                    }
                }
                for j in 0..h {
                    // Link index t of this group reaches group (grp+t+1);
                    // the reverse index is g-2-t (an involution), which
                    // pins the landing router and slot.
                    let t = r * h + j;
                    let back = g - 2 - t;
                    table.push(PortTarget::Switch {
                        sw: ((grp + t + 1) % g) * a + back / h,
                        port: p + (a - 1) + back % h,
                    });
                }
                ports.push(table);
            }
        }
        FabricGraph::finish(
            TopologyKind::Dragonfly {
                routers,
                hosts_per_router,
                globals_per_router,
            },
            hosts,
            ports,
        )
    }

    fn finish(kind: TopologyKind, hosts: u32, ports: Vec<Vec<PortTarget>>) -> Self {
        let mut port_base = Vec::with_capacity(ports.len());
        let mut total = 0u32;
        for table in &ports {
            port_base.push(total);
            total += table.len() as u32;
        }
        FabricGraph {
            kind,
            hosts,
            ports,
            port_base,
            total_ports: total,
        }
    }

    /// Number of switches.
    pub fn switches(&self) -> u32 {
        self.ports.len() as u32
    }

    /// Global port id of `(sw, port)` — the index per-port runtime state
    /// (buffers, busy horizons) is keyed by.
    #[inline]
    pub fn gid(&self, sw: u32, port: u32) -> usize {
        (self.port_base[sw as usize] + port) as usize
    }

    /// Links crossing a best-case bisection of the topology: the capacity
    /// denominator for achieved-goodput reporting.
    pub fn bisection_links(&self) -> u64 {
        match self.kind {
            // Full-bisection fat tree: hosts/2 host-pairs can cross.
            TopologyKind::FatTree { .. } => u64::from(self.hosts) / 2,
            // One global link per group pair: ceil(g/2) * floor(g/2).
            TopologyKind::Dragonfly {
                routers,
                globals_per_router,
                ..
            } => {
                let g = u64::from(routers * globals_per_router + 1);
                g.div_ceil(2) * (g / 2)
            }
        }
    }

    /// The `(switch, port)` pair of a global port id — the inverse of
    /// [`FabricGraph::gid`], for naming ports in telemetry reports.
    pub fn port_of_gid(&self, gid: usize) -> (u32, u32) {
        debug_assert!((gid as u32) < self.total_ports);
        let sw = match self.port_base.binary_search(&(gid as u32)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (sw as u32, gid as u32 - self.port_base[sw])
    }

    /// Labels of the topology's link classes, in render order. Telemetry
    /// keeps one busy series per class: a fat tree gets one class per
    /// cable level and direction (`L0->host`, `L0->L1`, `L1->L0`, ...),
    /// a dragonfly the canonical `host` / `local` / `global` split.
    pub fn link_classes(&self) -> Vec<String> {
        match self.kind {
            TopologyKind::FatTree { levels, .. } => {
                let mut v = vec!["L0->host".to_string()];
                for l in 0..levels - 1 {
                    v.push(format!("L{l}->L{}", l + 1));
                    v.push(format!("L{}->L{l}", l + 1));
                }
                v
            }
            TopologyKind::Dragonfly { .. } => {
                vec!["host".into(), "local".into(), "global".into()]
            }
        }
    }

    /// Index into [`FabricGraph::link_classes`] of egress port `port` on
    /// switch `sw`.
    pub fn link_class(&self, sw: u32, port: u32) -> usize {
        match self.kind {
            TopologyKind::FatTree { radix, levels } => {
                let width = pow_u32(radix, levels - 1);
                let level = sw / width;
                if port < radix {
                    // Down port: level 0 ejects to hosts, higher levels
                    // descend one stage.
                    if level == 0 {
                        0
                    } else {
                        2 * level as usize
                    }
                } else {
                    // Up port from `level` to `level + 1`.
                    1 + 2 * level as usize
                }
            }
            TopologyKind::Dragonfly {
                routers,
                hosts_per_router,
                ..
            } => {
                if port < hosts_per_router {
                    0
                } else if port < hosts_per_router + routers - 1 {
                    1
                } else {
                    2
                }
            }
        }
    }

    /// Dragonfly group of a switch (`None` on other topologies) — the
    /// row key of the per-group global-link heatmap.
    pub fn switch_group(&self, sw: u32) -> Option<u32> {
        match self.kind {
            TopologyKind::Dragonfly { routers, .. } => Some(sw / routers),
            _ => None,
        }
    }

    /// Human-readable parameter string for reports.
    pub fn params(&self) -> String {
        match self.kind {
            TopologyKind::FatTree { radix, levels } => {
                format!("k={radix},n={levels}")
            }
            TopologyKind::Dragonfly {
                routers,
                hosts_per_router,
                globals_per_router,
            } => {
                format!(
                    "a={routers},p={hosts_per_router},h={globals_per_router},g={}",
                    routers * globals_per_router + 1
                )
            }
        }
    }

    /// Deterministic minimal route from `src` to `dst` (hosts), appended
    /// into `out` (cleared first). Fat tree: D-mod-k up*/down*. Dragonfly:
    /// local–global–local.
    pub fn route_into(&self, src: u32, dst: u32, out: &mut Vec<RouteHop>) {
        out.clear();
        debug_assert!(src < self.hosts && dst < self.hosts && src != dst);
        match self.kind {
            TopologyKind::FatTree { radix, levels } => {
                self.fat_tree_route(radix, levels, src, dst, out)
            }
            TopologyKind::Dragonfly {
                routers,
                hosts_per_router,
                globals_per_router,
            } => self.dragonfly_route(routers, hosts_per_router, globals_per_router, src, dst, out),
        }
    }

    fn fat_tree_route(&self, k: u32, n: u32, src: u32, dst: u32, out: &mut Vec<RouteHop>) {
        debug_assert!(out.is_empty(), "the descent reads the ascent back");
        let width = self.switches() / n;
        // The route descends the destination's leaf column `col`. On the
        // way up, the level-l switch keeps the source column's digits from
        // l up (`a = src/k / k^l`) and has taken the destination's below l
        // (`lo = col % k^l`); it leaves by up port `k + ` the destination's
        // digit l (`b % k`, `b = col / k^l`). The lowest common ancestor is
        // the first level where `a == b`.
        let col = dst / k;
        let (mut a, mut b, mut lo, mut pl, mut m) = (src / k, col, 0, 1, 0);
        while a != b {
            let d = b % k;
            out.push(RouteHop {
                sw: m * width + a * pl + lo,
                port: k + d,
            });
            lo += d * pl;
            pl *= k;
            a /= k;
            b /= k;
            m += 1;
        }
        // Descend `col`: the down port at level l is the digit the ascent
        // took at level l-1.
        for l in (1..=m).rev() {
            out.push(RouteHop {
                sw: l * width + col,
                port: out[l as usize - 1].port - k,
            });
        }
        out.push(RouteHop {
            sw: col,
            port: dst % k,
        });
    }

    fn dragonfly_route(&self, a: u32, p: u32, h: u32, src: u32, dst: u32, out: &mut Vec<RouteHop>) {
        let d_sw = dst / p;
        let mut cur = src / p;
        if cur / a != d_sw / a {
            cur = self.hop_to_group(a, p, h, cur, d_sw / a, out);
        }
        if cur != d_sw {
            out.push(RouteHop {
                sw: cur,
                port: local_port_of(p, cur % a, d_sw % a),
            });
            cur = d_sw;
        }
        out.push(RouteHop {
            sw: cur,
            port: dst % p,
        });
    }

    /// Minimal hop sequence from router `cur` to group `to`: at most one
    /// local hop to the router holding the global link, then the global
    /// hop. Returns the landing router.
    fn hop_to_group(
        &self,
        a: u32,
        p: u32,
        h: u32,
        cur: u32,
        to: u32,
        out: &mut Vec<RouteHop>,
    ) -> u32 {
        let g = a * h + 1;
        let grp = cur / a;
        debug_assert_ne!(grp, to);
        let t = (to + g - grp - 1) % g; // link index toward `to`
        let holder = grp * a + t / h;
        if cur != holder {
            out.push(RouteHop {
                sw: cur,
                port: local_port_of(p, cur % a, holder % a),
            });
        }
        out.push(RouteHop {
            sw: holder,
            port: p + (a - 1) + t % h,
        });
        let back = g - 2 - t;
        to * a + back / h
    }
}

/// Port index on router `r` of the local link toward router `peer`.
fn local_port_of(p: u32, r: u32, peer: u32) -> u32 {
    debug_assert_ne!(r, peer);
    p + if peer < r { peer } else { peer - 1 }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Follow a route hop-by-hop through the port tables and return the
    /// host it delivers to, checking cable consistency along the way.
    fn walk(g: &FabricGraph, src: u32, route: &[RouteHop]) -> u32 {
        // The switch the source's injection link lands on.
        let mut at = match g.kind {
            TopologyKind::FatTree { radix, .. } => src / radix,
            TopologyKind::Dragonfly {
                hosts_per_router, ..
            } => src / hosts_per_router,
        };
        for (i, hop) in route.iter().enumerate() {
            assert_eq!(hop.sw, at, "hop {i} leaves the wrong switch");
            match g.ports[hop.sw as usize][hop.port as usize] {
                PortTarget::Host(hst) => {
                    assert_eq!(i, route.len() - 1, "host egress before the end");
                    return hst;
                }
                PortTarget::Switch { sw, port } => {
                    // The far end must point back: full-duplex cable.
                    assert_eq!(
                        g.ports[sw as usize][port as usize],
                        PortTarget::Switch {
                            sw: hop.sw,
                            port: hop.port
                        },
                        "cable between {}:{} and {sw}:{port} is not symmetric",
                        hop.sw,
                        hop.port
                    );
                    at = sw;
                }
            }
        }
        panic!("route never reached a host");
    }

    #[test]
    fn fat_tree_shape_and_port_counts() {
        let g = FabricGraph::fat_tree(4, 3);
        assert_eq!(g.hosts, 64);
        assert_eq!(g.switches(), 48, "3 stages x 16 switches");
        // Stages 0..2 have 8 ports, the top stage 4.
        assert_eq!(g.ports[0].len(), 8);
        assert_eq!(g.ports[40].len(), 4);
        assert_eq!(g.bisection_links(), 32);
    }

    #[test]
    fn fat_tree_routes_deliver_and_are_minimal() {
        let g = FabricGraph::fat_tree(4, 3);
        let mut route = Vec::new();
        for (src, dst) in [(0u32, 1u32), (0, 5), (0, 63), (17, 42), (63, 0)] {
            g.route_into(src, dst, &mut route);
            assert_eq!(walk(&g, src, &route), dst, "{src}->{dst}");
            assert!(route.len() % 2 == 1, "up*/down* visits 2m+1 switches");
        }
        // Same level-0 switch: exactly one hop.
        g.route_into(0, 1, &mut route);
        assert_eq!(route.len(), 1);
        // Opposite halves: must climb to the top stage, 2*2+1 hops.
        g.route_into(0, 63, &mut route);
        assert_eq!(route.len(), 5);
    }

    #[test]
    fn two_host_fat_tree_is_one_switch() {
        let g = FabricGraph::fat_tree(2, 1);
        assert_eq!(g.hosts, 2);
        assert_eq!(g.switches(), 1);
        let mut route = Vec::new();
        g.route_into(0, 1, &mut route);
        assert_eq!(route.len(), 1);
        assert_eq!(walk(&g, 0, &route), 1);
    }

    /// The digit-by-digit D-mod-k route the closed form replaced: find
    /// the highest differing base-k digit, then rewrite the switch column
    /// one digit per level on the way up and down.
    fn digit_route(k: u32, n: u32, src: u32, dst: u32) -> Vec<RouteHop> {
        let width = pow_u32(k, n - 1);
        let digit = |x: u32, i: u32| (x / pow_u32(k, i)) % k;
        let mut m = 0;
        for i in 0..n {
            if digit(src, i) != digit(dst, i) {
                m = i;
            }
        }
        let mut out = Vec::new();
        let mut w = src / k;
        for l in 0..m {
            out.push(RouteHop {
                sw: l * width + w,
                port: k + digit(dst, l + 1),
            });
            let pl = pow_u32(k, l);
            w = w - digit(w, l) * pl + digit(dst, l + 1) * pl;
        }
        for l in (1..=m).rev() {
            out.push(RouteHop {
                sw: l * width + w,
                port: digit(dst, l),
            });
            let pl = pow_u32(k, l - 1);
            w = w - digit(w, l - 1) * pl + digit(dst, l) * pl;
        }
        out.push(RouteHop {
            sw: w,
            port: digit(dst, 0),
        });
        out
    }

    /// The closed-form route equals the digit-by-digit formula for every
    /// ordered host pair, including a radix that is not a power of two.
    #[test]
    fn closed_form_fat_tree_route_matches_the_digit_formula() {
        let mut route = Vec::new();
        for (k, n) in [(2, 1), (2, 6), (3, 3), (4, 3), (4, 5)] {
            let g = FabricGraph::fat_tree(k, n);
            for src in 0..g.hosts {
                for dst in (0..g.hosts).filter(|&d| d != src) {
                    g.route_into(src, dst, &mut route);
                    assert_eq!(
                        route,
                        digit_route(k, n, src, dst),
                        "k={k},n={n}: {src}->{dst}"
                    );
                }
            }
        }
    }

    /// Telemetry labeling helpers: every port belongs to exactly one
    /// link class, every class is populated, and `port_of_gid` inverts
    /// `gid` — the contract the heatmap renderer leans on.
    #[test]
    fn link_classes_partition_every_port() {
        for g in [FabricGraph::fat_tree(4, 3), FabricGraph::dragonfly(4, 2, 2)] {
            let classes = g.link_classes();
            let mut seen = vec![0u64; classes.len()];
            for sw in 0..g.switches() {
                for port in 0..g.ports[sw as usize].len() as u32 {
                    let c = g.link_class(sw, port);
                    assert!(c < classes.len(), "{sw}:{port} out of range");
                    seen[c] += 1;
                    assert_eq!(g.port_of_gid(g.gid(sw, port)), (sw, port));
                    if matches!(g.ports[sw as usize][port as usize], PortTarget::Host(_)) {
                        assert_eq!(c, 0, "host-facing ports are class 0");
                    }
                }
            }
            assert!(seen.iter().all(|&n| n > 0), "{classes:?}: {seen:?}");
        }
        // Dragonfly groups key the per-group heatmap; fat trees have none.
        let df = FabricGraph::dragonfly(4, 2, 2);
        assert_eq!(df.switch_group(0), Some(0));
        assert_eq!(df.switch_group(7), Some(1));
        assert_eq!(FabricGraph::fat_tree(2, 2).switch_group(1), None);
    }

    #[test]
    fn dragonfly_shape_and_global_links_are_symmetric() {
        let (a, p, h) = (4, 2, 2);
        let g = FabricGraph::dragonfly(a, p, h);
        assert_eq!(g.hosts, 9 * 4 * 2, "g=a*h+1=9 groups");
        assert_eq!(g.switches(), 36);
        assert_eq!(g.ports[0].len() as u32, p + (a - 1) + h);
        // Every global link is an involution (checked by `walk`'s symmetry
        // assertion for all routes below); spot-check the capacity count.
        assert_eq!(g.bisection_links(), 5 * 4);
    }

    #[test]
    fn dragonfly_minimal_routes_deliver_within_four_switches() {
        let g = FabricGraph::dragonfly(4, 2, 2);
        let mut route = Vec::new();
        for src in [0u32, 7, 30, 71] {
            for dst in [1u32, 8, 35, 64] {
                if src == dst {
                    continue;
                }
                g.route_into(src, dst, &mut route);
                assert_eq!(walk(&g, src, &route), dst, "{src}->{dst}");
                assert!(
                    route.len() <= 4,
                    "minimal is l-g-l: {src}->{dst} took {route:?}"
                );
            }
        }
    }

    proptest::proptest! {
        /// Fat-tree D-mod-k routes are minimal (2m+1 switches for NCA
        /// level m) and deadlock-free (strictly up* then down*: no up
        /// port ever follows a down port).
        #[test]
        fn fat_tree_routes_minimal_and_updown(
            k in 2u32..5,
            n in 1u32..4,
            a in 0u32..1000,
            b in 0u32..1000,
        ) {
            let g = FabricGraph::fat_tree(k, n);
            let src = a % g.hosts;
            let mut dst = b % g.hosts;
            if src == dst { dst = (dst + 1) % g.hosts; }
            let mut route = Vec::new();
            g.route_into(src, dst, &mut route);
            proptest::prop_assert_eq!(walk(&g, src, &route), dst);
            // Minimality: 2m+1 switches where m is the highest differing
            // base-k digit of src and dst.
            let mut m = 0;
            let (mut x, mut y, mut i) = (src, dst, 0);
            while x > 0 || y > 0 {
                if x % k != y % k { m = i; }
                x /= k; y /= k; i += 1;
            }
            proptest::prop_assert_eq!(route.len(), 2 * m as usize + 1);
            // up*/down*: up ports (>= k) may only appear before the first
            // down port (< k).
            let first_down = route.iter().position(|hp| hp.port < k).unwrap();
            for hp in &route[first_down..] {
                proptest::prop_assert!(hp.port < k, "up after down in {:?}", route);
            }
        }

        /// Dragonfly minimal routes always deliver and never exceed the
        /// local-global-local switch budget.
        #[test]
        fn dragonfly_routes_deliver(
            a in 1u32..5,
            p in 1u32..4,
            h in 1u32..4,
            x in 0u32..10_000,
            y in 0u32..10_000,
        ) {
            let g = FabricGraph::dragonfly(a, p, h);
            let src = x % g.hosts;
            let mut dst = y % g.hosts;
            if src == dst { dst = (dst + 1) % g.hosts; }
            let mut route = Vec::new();
            g.route_into(src, dst, &mut route);
            proptest::prop_assert_eq!(walk(&g, src, &route), dst);
            proptest::prop_assert!(route.len() <= 4);
        }
    }
}
