//! Network-position equivalence classes over a testbed topology.
//!
//! Two client machines attached to the same aggregation switch by links of
//! equal capacity and latency occupy *symmetric network positions*: every
//! path from a server group to one of them differs from the path to the
//! other only in the final access hop, which carries the same parameters.
//! Their Remos flow predictions therefore agree up to each machine's own
//! in-flight transfers — close enough that one max-min probe per class can
//! serve every member at fleet scale. Group replicas with identical
//! attachment are symmetric in the same sense on the server side.
//!
//! The index deliberately merges **only under an aggregation tier**
//! ([`Testbed::agg_routers`](gridapp::Testbed) non-empty). The classic
//! direct-attach presets keep one class per machine and one class per
//! server, so class-shared probing there is *exactly* the historical
//! per-element probing — byte-identical reports, as the property tests
//! assert. The aggregated presets accept the per-machine approximation in
//! exchange for cutting probe sampling by roughly the class size.

use gridapp::{Key, Testbed};
use rustc_hash::FxHashMap;
use simnet::NodeId;
use std::collections::BTreeMap;
use std::fmt::Write;

/// A class of clients whose machines occupy symmetric network positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientClass {
    /// Dense class id (ascending, assigned in client-number order).
    pub id: usize,
    /// The node the class's machines attach to (an aggregation switch for
    /// merged classes, the machine's router otherwise).
    pub attach: NodeId,
    /// Member client names (`"User1"`, …) in lexicographic order — the order
    /// the flow snapshot iterates — as the application's interned keys.
    pub members: Vec<Key>,
    /// The representative whose machine is probed for the whole class (the
    /// lexicographically first member).
    pub representative: Key,
    /// The representative's machine, which class probes address.
    pub host: NodeId,
}

/// A class of servers with identical attachment, interchangeable for
/// bandwidth prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerClass {
    /// Dense class id (ascending, assigned in server-number order).
    pub id: usize,
    /// Member server names (`"S1"`, …) in lexicographic order.
    pub members: Vec<Key>,
}

/// Key under which clients/servers merge. Merging happens only for machines
/// behind an aggregation switch; everything else stays a singleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum PositionKey {
    /// Symmetric position behind an aggregation switch:
    /// `(attach node, capacity bits, latency bits, shares_request_queue)`.
    Shared(usize, u64, u64, bool),
    /// A singleton position, keyed by the machine itself (clients sharing a
    /// machine were always served by one probe) or by the element index.
    Singleton(usize),
}

/// The equivalence-class index of one testbed deployment.
///
/// Built once per run from the static topology; group membership and
/// liveness stay dynamic and are consulted at probe time. Names are interned
/// [`Key`]s, so a member costs one word and a class lookup hashes one.
#[derive(Debug, Clone)]
pub struct ClassIndex {
    client_classes: Vec<ClientClass>,
    client_class_of: FxHashMap<Key, usize>,
    server_classes: Vec<ServerClass>,
    server_class_of: FxHashMap<Key, usize>,
}

/// The key of `{prefix}{number}`, formatted in `buf`.
fn numbered(buf: &mut String, prefix: &str, number: usize) -> Key {
    buf.clear();
    write!(buf, "{prefix}{number}").expect("writing to a String cannot fail");
    Key::new(buf)
}

impl ClassIndex {
    /// Computes the index for a built testbed, using the grid application's
    /// naming conventions (client *i* is `"User{i}"` on machine `"C{i}"`,
    /// server *j* is `"S{j}"`).
    pub fn build(testbed: &Testbed) -> ClassIndex {
        let topology = &testbed.topology;
        let agg: std::collections::BTreeSet<NodeId> = testbed.agg_routers.iter().copied().collect();
        let shared = !agg.is_empty();

        // Clients, grouped per machine; machines merge when they hang off the
        // same aggregation switch with identical access links.
        let mut client_key_of_host: BTreeMap<NodeId, PositionKey> = BTreeMap::new();
        let mut client_members: BTreeMap<PositionKey, (Vec<Key>, NodeId)> = BTreeMap::new();
        let mut client_order: Vec<PositionKey> = Vec::new();
        let mut name = String::new();
        for (i, (_, host)) in testbed.client_hosts.iter().enumerate() {
            let key = *client_key_of_host.entry(*host).or_insert_with(|| {
                match topology.position_signature(*host) {
                    Some((attach, cap, lat)) if shared && agg.contains(&attach) => {
                        PositionKey::Shared(attach.0, cap, lat, false)
                    }
                    _ => PositionKey::Singleton(host.0),
                }
            });
            let (members, least_host) = client_members.entry(key).or_insert_with(|| {
                client_order.push(key);
                (Vec::new(), *host)
            });
            members.push(numbered(&mut name, "User", i + 1));
            // The least name so far is kept first, with its machine.
            if members.last() < members.first() {
                let last = members.len() - 1;
                members.swap(0, last);
                *least_host = *host;
            }
        }
        let mut client_classes = Vec::with_capacity(client_order.len());
        let mut client_class_of = FxHashMap::default();
        client_class_of.reserve(testbed.client_hosts.len());
        for key in client_order {
            let (mut members, host) = client_members.remove(&key).expect("key was recorded");
            members.sort();
            let id = client_classes.len();
            client_class_of.extend(members.iter().map(|&member| (member, id)));
            let representative = *members.first().expect("classes are non-empty");
            let attach = match key {
                PositionKey::Shared(attach, ..) => NodeId(attach),
                PositionKey::Singleton(host) => topology
                    .attachment(NodeId(host))
                    .map(|(node, _)| node)
                    .unwrap_or(NodeId(host)),
            };
            client_classes.push(ClientClass {
                id,
                attach,
                members,
                representative,
                host,
            });
        }

        // Servers: identical attachment merges only under an aggregation
        // tier; the machine shared with the request queue stays apart (its
        // access link carries every inbound request, so it is *not*
        // position-symmetric with its neighbours).
        let mut server_members: BTreeMap<PositionKey, Vec<Key>> = BTreeMap::new();
        let mut server_order: Vec<PositionKey> = Vec::new();
        for (j, host) in testbed.server_hosts.iter().enumerate() {
            let key = if shared {
                match topology.position_signature(*host) {
                    Some((attach, cap, lat)) => {
                        PositionKey::Shared(attach.0, cap, lat, *host == testbed.host_request_queue)
                    }
                    None => PositionKey::Singleton(host.0),
                }
            } else {
                PositionKey::Singleton(j)
            };
            let members = server_members.entry(key).or_insert_with(|| {
                server_order.push(key);
                Vec::new()
            });
            members.push(numbered(&mut name, "S", j + 1));
        }
        let mut server_classes = Vec::with_capacity(server_order.len());
        let mut server_class_of = FxHashMap::default();
        for key in server_order {
            let mut members = server_members.remove(&key).expect("key was recorded");
            members.sort();
            let id = server_classes.len();
            server_class_of.extend(members.iter().map(|&member| (member, id)));
            server_classes.push(ServerClass { id, members });
        }

        ClassIndex {
            client_classes,
            client_class_of,
            server_classes,
            server_class_of,
        }
    }

    /// The client classes, in ascending id order.
    pub fn client_classes(&self) -> &[ClientClass] {
        &self.client_classes
    }

    /// The server classes, in ascending id order.
    pub fn server_classes(&self) -> &[ServerClass] {
        &self.server_classes
    }

    /// The class a client, named by its interned key, belongs to: one
    /// pointer hash, no lookup by text.
    pub fn client_class_of(&self, client: Key) -> Option<usize> {
        self.client_class_of.get(&client).copied()
    }

    /// The class a server belongs to.
    pub fn server_class_of(&self, server: Key) -> Option<usize> {
        self.server_class_of.get(&server).copied()
    }

    /// The members of a client class.
    pub fn client_class(&self, id: usize) -> Option<&ClientClass> {
        self.client_classes.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridapp::{GridApp, GridConfig, TestbedSpec};

    #[test]
    fn classic_presets_have_one_class_per_machine_and_server() {
        for preset in ["paper", "wide-fanout", "congested-core"] {
            let spec = TestbedSpec::by_name(preset).unwrap();
            let testbed = Testbed::from_spec(&spec).unwrap();
            let index = ClassIndex::build(&testbed);
            // One client class per distinct machine (shared machines pool
            // their clients, exactly like the historical per-machine memo).
            let distinct_hosts: std::collections::BTreeSet<_> =
                testbed.client_hosts.iter().map(|&(_, h)| h).collect();
            assert_eq!(index.client_classes().len(), distinct_hosts.len());
            // Every server is its own class.
            assert_eq!(index.server_classes().len(), testbed.server_hosts.len());
            for class in index.server_classes() {
                assert_eq!(class.members.len(), 1, "{preset}");
            }
        }
    }

    #[test]
    fn paper_preset_pools_machine_sharing_clients() {
        let testbed = Testbed::build().unwrap();
        let index = ClassIndex::build(&testbed);
        // C1/C2 and C5/C6 share machines: 4 client classes for 6 clients.
        assert_eq!(index.client_classes().len(), 4);
        let c12 = index.client_class_of(Key::new("User1")).unwrap();
        assert_eq!(index.client_class_of(Key::new("User2")), Some(c12));
        assert_ne!(
            index.client_class_of(Key::new("User3")),
            index.client_class_of(Key::new("User4"))
        );
        let class = index.client_class(c12).unwrap();
        assert_eq!(class.representative, "User1");
        assert_eq!(class.host, testbed.client_hosts[0].1);
    }

    #[test]
    fn large_scale_merges_behind_aggregation_switches() {
        let app = GridApp::build(GridConfig::with_testbed(TestbedSpec::large_scale())).unwrap();
        let testbed = app.testbed();
        let index = ClassIndex::build(testbed);
        // 800 R1 clients at 32/agg = 25 switches, 400 R2 clients = 13
        // switches (12 full + one of 16), 800 R5 clients = 25 switches.
        assert_eq!(index.client_classes().len(), 63);
        let total_members: usize = index.client_classes().iter().map(|c| c.members.len()).sum();
        assert_eq!(total_members, 2000);
        // A class probes its representative's machine, also where the least
        // name is not the lowest client number ("User100" sorts before
        // "User97").
        for class in index.client_classes() {
            let host = app.client_host(class.representative.as_str());
            assert_eq!(Some(class.host), host, "{class:?}");
        }
        // Servers: the 56 machines behind R3 are one class, the request-queue
        // machine behind R4 is its own, the remaining 37 behind R4 are one.
        assert_eq!(index.server_classes().len(), 3);
        let sizes: Vec<usize> = index
            .server_classes()
            .iter()
            .map(|c| c.members.len())
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 94);
        assert!(sizes.contains(&56), "{sizes:?}");
        assert!(sizes.contains(&1), "{sizes:?}");
        assert!(sizes.contains(&37), "{sizes:?}");
    }

    #[test]
    fn index_build_is_deterministic() {
        let testbed = Testbed::from_spec(&TestbedSpec::large_scale()).unwrap();
        let a = ClassIndex::build(&testbed);
        let b = ClassIndex::build(&testbed);
        assert_eq!(a.client_classes(), b.client_classes());
        assert_eq!(a.server_classes(), b.server_classes());
    }
}
