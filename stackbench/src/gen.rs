//! Seeded input generation and the plain model of what was generated.
//!
//! The stack only ever receives what these generators emit; the same
//! models feed the correctness gate, which recomputes the expected
//! device state from them with `baselines::FullRecompute`.

use std::collections::{BTreeMap, VecDeque};

use baselines::model::{LearnedMac, Mode, PortConfig};
use p4sim::runtime::Digest;
use serde_json::{json, Value as Json};

/// VLAN ids in use: `FIRST_VLAN .. FIRST_VLAN + VLANS`.
pub const VLANS: u16 = 16;
pub const FIRST_VLAN: u16 = 100;
/// Ports live after set-up.
pub const PORTS: u16 = 800;
/// VLANs a trunk port carries.
pub const TRUNK_VLANS: usize = 8;

/// SplitMix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0F57_ACCB_E7A1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn vlan(&mut self) -> u16 {
        FIRST_VLAN + self.below(VLANS as usize) as u16
    }

    /// A VLAN other than `not`.
    pub fn other_vlan(&mut self, not: u16) -> u16 {
        let v = FIRST_VLAN + self.below(VLANS as usize - 1) as u16;
        if v >= not {
            v + 1
        } else {
            v
        }
    }

    /// `TRUNK_VLANS` distinct VLANs, ascending.
    pub fn trunk_set(&mut self) -> Vec<u16> {
        let mut all: Vec<u16> = (FIRST_VLAN..FIRST_VLAN + VLANS).collect();
        for i in 0..TRUNK_VLANS {
            let j = i + self.below(all.len() - i);
            all.swap(i, j);
        }
        let mut set = all[..TRUNK_VLANS].to_vec();
        set.sort_unstable();
        set
    }
}

/// The OVSDB row for a port, with every column written so that any
/// mode change replaces the whole VLAN configuration.
pub fn port_row(p: &PortConfig) -> Json {
    match &p.mode {
        Mode::Access(v) => json!({
            "id": p.id, "vlan_mode": "access", "tag": v, "trunks": ["set", []]
        }),
        Mode::Trunk(vs) => json!({
            "id": p.id, "vlan_mode": "trunk", "tag": ["set", []], "trunks": ["set", vs]
        }),
    }
}

/// The management-plane model: live ports by id.
#[derive(Default)]
pub struct Ports {
    pub live: BTreeMap<u16, PortConfig>,
}

impl Ports {
    /// `PORTS` ports, `trunk_share_pct` percent of them trunks on average.
    pub fn initial(rng: &mut Rng, trunk_share_pct: usize) -> Ports {
        let mut live = BTreeMap::new();
        for id in 1..=PORTS {
            let cfg = if rng.below(100) < trunk_share_pct {
                PortConfig::trunk(id, rng.trunk_set())
            } else {
                PortConfig::access(id, rng.vlan())
            };
            live.insert(id, cfg);
        }
        Ports { live }
    }

    pub fn configs(&self) -> Vec<PortConfig> {
        self.live.values().cloned().collect()
    }

    /// Insert transactions that create every live port, `per_txn` rows
    /// each, plus one that registers `switches` switches.
    pub fn population_txns(&self, switches: usize, per_txn: usize) -> Vec<Json> {
        let mut txns = vec![Json::Array(
            (0..switches)
                .map(|sw| json!({"op": "insert", "table": "Switch", "row": {"idx": sw}}))
                .collect(),
        )];
        let rows: Vec<Json> = self
            .live
            .values()
            .map(|p| json!({"op": "insert", "table": "Port", "row": port_row(p)}))
            .collect();
        for chunk in rows.chunks(per_txn) {
            txns.push(Json::Array(chunk.to_vec()));
        }
        txns
    }

    fn random_live(&self, rng: &mut Rng) -> u16 {
        let idx = rng.below(self.live.len());
        *self.live.keys().nth(idx).expect("index below len")
    }

    /// `port_churn`: one insert, delete or retag, ⅓ each, with the
    /// population held between 700 and 900 ports. Every change alters
    /// the database: inserts use a free id, retags pick another VLAN.
    pub fn churn(&mut self, rng: &mut Rng) -> Json {
        let mut kind = rng.below(3);
        if kind == 0 && self.live.len() >= 900 {
            kind = 1;
        } else if kind == 1 && self.live.len() <= 700 {
            kind = 0;
        }
        let where_id = |id: u16| json!([["id", "==", id]]);
        match kind {
            0 => {
                let mut id = 1 + rng.below(1000) as u16;
                while self.live.contains_key(&id) {
                    id = id % 1000 + 1;
                }
                let cfg = PortConfig::access(id, rng.vlan());
                let row = port_row(&cfg);
                self.live.insert(id, cfg);
                json!([{"op": "insert", "table": "Port", "row": row}])
            }
            1 => {
                let id = self.random_live(rng);
                self.live.remove(&id);
                json!([{"op": "delete", "table": "Port", "where": where_id(id)}])
            }
            _ => {
                let id = self.random_live(rng);
                let cfg = self.live.get_mut(&id).expect("live port");
                let Mode::Access(old) = cfg.mode else {
                    unreachable!("port_churn keeps every port in access mode")
                };
                let tag = rng.other_vlan(old);
                cfg.mode = Mode::Access(tag);
                json!([{"op": "update", "table": "Port", "where": where_id(id),
                        "row": {"tag": tag}}])
            }
        }
    }

    /// `vlan_burst`: flip one random port between access and trunk.
    pub fn flip(&mut self, rng: &mut Rng) -> Json {
        let id = self.random_live(rng);
        let cfg = self.live.get_mut(&id).expect("live port");
        cfg.mode = match cfg.mode {
            Mode::Access(_) => Mode::Trunk(rng.trunk_set()),
            Mode::Trunk(_) => Mode::Access(rng.vlan()),
        };
        let mut row = port_row(cfg);
        row.as_object_mut().expect("row object").remove("id");
        json!([{"op": "update", "table": "Port", "where": [["id", "==", id]], "row": row}])
    }

    /// Access ports grouped by VLAN.
    pub fn access_by_vlan(&self) -> BTreeMap<u16, Vec<u16>> {
        let mut out: BTreeMap<u16, Vec<u16>> = BTreeMap::new();
        for p in self.live.values() {
            if let Mode::Access(v) = p.mode {
                out.entry(v).or_default().push(p.id);
            }
        }
        out
    }
}

/// One learned (switch, port, MAC, VLAN) fact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Learned {
    pub switch: usize,
    pub mac: LearnedMac,
}

impl Learned {
    pub fn digest(&self) -> Digest {
        Digest {
            name: "mac_learn_t".into(),
            fields: vec![
                ("port".into(), self.mac.port as u128),
                ("mac".into(), self.mac.mac as u128),
                ("vlan".into(), self.mac.vlan as u128),
            ],
        }
    }
}

/// The data-plane model of `mac_learn`: live learned facts, oldest
/// first. Facts alternate between the switches, so aging the oldest
/// `n` takes `n / switches` from each.
pub struct Macs {
    pub fifo: VecDeque<Learned>,
    /// Live facts per (switch, MAC): a MAC with two facts has moved.
    facts: BTreeMap<(usize, u64), u8>,
    next_mac: u64,
    by_vlan: BTreeMap<u16, Vec<u16>>,
    ports: Vec<(u16, u16)>,
}

impl Macs {
    pub fn new(ports: &Ports) -> Macs {
        let ports_list = ports
            .live
            .values()
            .filter_map(|p| match p.mode {
                Mode::Access(v) => Some((p.id, v)),
                Mode::Trunk(_) => None,
            })
            .collect();
        Macs {
            fifo: VecDeque::new(),
            facts: BTreeMap::new(),
            next_mac: 0,
            by_vlan: ports.access_by_vlan(),
            ports: ports_list,
        }
    }

    fn push(&mut self, l: Learned) {
        *self.facts.entry((l.switch, l.mac.mac)).or_default() += 1;
        self.fifo.push_back(l);
    }

    /// A never-seen MAC behind a random access port of `switch`.
    pub fn fresh(&mut self, rng: &mut Rng, switch: usize) -> Learned {
        self.next_mac += 1;
        let (port, vlan) = self.ports[rng.below(self.ports.len())];
        let l = Learned {
            switch,
            // Locally administered unicast addresses.
            mac: LearnedMac {
                port,
                mac: 0x0200_0000_0000 | self.next_mac,
                vlan,
            },
        };
        self.push(l);
        l
    }

    /// A live, not-yet-moved MAC of `switch` seen again behind another
    /// port of its VLAN; `None` if the random pick does not qualify.
    pub fn moved(&mut self, rng: &mut Rng, switch: usize) -> Option<Learned> {
        let old = self.fifo[rng.below(self.fifo.len())];
        if old.switch != switch || self.facts[&(switch, old.mac.mac)] != 1 {
            return None;
        }
        let peers = &self.by_vlan[&old.mac.vlan];
        if peers.len() < 2 {
            return None;
        }
        let mut port = peers[rng.below(peers.len())];
        if port == old.mac.port {
            port = peers[(peers.iter().position(|p| *p == port)? + 1) % peers.len()];
        }
        let l = Learned {
            switch,
            mac: LearnedMac { port, ..old.mac },
        };
        self.push(l);
        Some(l)
    }

    /// Forget the `n` oldest facts.
    pub fn age(&mut self, n: usize) -> Vec<Learned> {
        let aged: Vec<Learned> = self.fifo.drain(..n.min(self.fifo.len())).collect();
        for l in &aged {
            let key = (l.switch, l.mac.mac);
            let c = self.facts.get_mut(&key).expect("aged fact is live");
            *c -= 1;
            if *c == 0 {
                self.facts.remove(&key);
            }
        }
        aged
    }

    /// Live facts of one switch, as the full-recompute baseline takes them.
    pub fn of_switch(&self, switch: usize) -> Vec<LearnedMac> {
        self.fifo
            .iter()
            .filter(|l| l.switch == switch)
            .map(|l| l.mac)
            .collect()
    }

    /// Distinct live MACs of one switch.
    pub fn distinct(&self, switch: usize) -> usize {
        self.facts.keys().filter(|(s, _)| *s == switch).count()
    }
}

/// An untagged broadcast frame from `src`: it is classified into the
/// ingress port's VLAN, raises a learning digest, and floods the VLAN.
pub fn frame(src: u64) -> Vec<u8> {
    let mut f = vec![0u8; 64];
    f[..6].fill(0xFF);
    f[6..12].copy_from_slice(&src.to_be_bytes()[2..]);
    f[12] = 0x08;
    f
}
