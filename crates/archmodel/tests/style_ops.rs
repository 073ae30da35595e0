//! The style is kept by its operators. On a style-valid model, every
//! `MoveClient`, `MoveClientGroup` and `AddServer` that applies leaves the
//! model style-valid, so a script needs no copy to be checked: both planners
//! write theirs against the live model. `RemoveServer` is the one operator
//! that can break the style, and only by removing a group's last active
//! server, which `ClientServerStyle::script_violations` finds from the script
//! alone: it must report what `validate` reports on the model the script
//! leaves.
//!
//! The read-only `ClientServerStyle::resolve_move` and `resolve_remove`,
//! which the operators call in place of applying an op, must fail exactly
//! when applying it does.

use archmodel::style::{ClientServerStyle as Style, SERVER_GROUP_T, SERVER_T};
use archmodel::{apply_op, Key, ModelOp, System};
use proptest::collection::vec;
use proptest::{Strategy, TestRng};

/// A style-valid fleet: one group per entry of `servers` (with `1 + entry %
/// 3` replicas), one client per entry of `homes` homed on group `entry %
/// groups`, then each `(client, group)` of `earlier` applied as a move.
fn fleet(servers: &[usize], homes: &[usize], earlier: &[(usize, usize)]) -> System {
    let mut sys = System::new("fleet");
    let groups: Vec<_> = servers
        .iter()
        .enumerate()
        .map(|(g, n)| Style::add_server_group(&mut sys, &group(g), 1 + n % 3).unwrap())
        .collect();
    let clients = homes.iter().enumerate();
    let clients = clients.map(|(i, home)| (format!("User{}", i + 1), group(home % groups.len())));
    Style::add_clients(&mut sys, clients).unwrap();
    for &(client, to) in earlier {
        let op = ModelOp::MoveClient {
            client: format!("User{}", client % homes.len() + 1).into(),
            to_group: group(to % groups.len()).into(),
        };
        apply_op(&mut sys, &op).unwrap();
    }
    assert_eq!(Style::validate(&sys), Vec::new());
    sys
}

fn group(g: usize) -> String {
    format!("ServerGrp{}", g + 1)
}

/// A client name: one of the fleet's, or (one pick in `clients + 3`) one it
/// does not have.
fn client(pick: usize, clients: usize) -> String {
    let pick = pick % (clients + 3);
    if pick < clients {
        format!("User{}", pick + 1)
    } else {
        format!("Ghost{pick}")
    }
}

/// A target name: a group, a client (not a group), or nothing at all.
fn target(pick: usize, groups: usize) -> String {
    let pick = pick % (groups + 2);
    match pick.checked_sub(groups) {
        None => group(pick),
        Some(0) => "User1".to_string(),
        Some(_) => "Nowhere".to_string(),
    }
}

/// A new server's name: the group's first free `.Server{i}`, a taken
/// component name, or a name that is free until an earlier op takes it.
fn server_name(sys: &System, group: &str, pick: usize) -> String {
    match pick % 3 {
        0 => (1..)
            .map(|i| format!("{group}.Server{i}"))
            .find(|name| sys.component_by_name(name).is_none())
            .unwrap(),
        1 => ["ServerGrp1.Server1", "User1", "ServerGrp1"][pick % 9 / 3].to_string(),
        _ => format!("Extra{}", pick % 4),
    }
}

/// Whether `name` is a server group of `sys`.
fn is_group(sys: &System, name: &str) -> bool {
    sys.component_by_name(name)
        .is_some_and(|id| sys.component(id).unwrap().ctype == SERVER_GROUP_T)
}

/// The servers of `server`'s group, if `server` is a server in one.
fn siblings(sys: &System, server: &str) -> Option<usize> {
    let id = sys.component_by_name(server)?;
    let comp = sys.component(id).unwrap();
    (comp.ctype == SERVER_T).then_some(())?;
    Some(sys.children(comp.parent?).count())
}

/// How many ops of each kind a run of scripts applied, and how many
/// removals broke the style.
#[derive(Debug, Default)]
struct Tally {
    moves: usize,
    group_moves: usize,
    adds: usize,
    removals: usize,
    breaking_removals: usize,
    failures: usize,
}

/// Applies `script` to `sys` op by op and checks each outcome (see the
/// test below).
fn run_script(
    mut sys: System,
    groups: usize,
    clients: usize,
    script: Vec<(usize, usize, usize, Vec<usize>)>,
    tally: &mut Tally,
) {
    // The model the script starts from, and the ops it has applied since.
    let (start, mut applied_ops) = (sys.clone(), Vec::new());
    for (kind, pick, to, members) in script {
        let to_group = Key::new(&target(to, groups));
        let op = match kind {
            0 => ModelOp::MoveClient {
                client: client(pick, clients).into(),
                to_group,
            },
            // Unknown names, duplicates and members already on the target
            // all come out of the picks.
            1 => ModelOp::MoveClientGroup {
                clients: members
                    .iter()
                    .map(|&m| Key::from(client(m, clients)))
                    .collect(),
                to_group,
            },
            2 => {
                let server = server_name(&sys, to_group.as_str(), pick).into();
                ModelOp::AddServer {
                    group: to_group,
                    server,
                }
            }
            _ => ModelOp::RemoveServer {
                server: format!("{}.Server{}", group(to % groups), 1 + pick % 4).into(),
            },
        };
        let before = sys.clone();
        let applied = apply_op(&mut sys, &op);
        if applied.is_err() {
            tally.failures += 1;
            assert_eq!(sys, before, "a failed {op:?} changed the model");
        }
        match &op {
            &ModelOp::MoveClient { client, to_group } => {
                let resolved = Style::resolve_move(&before, &[client], to_group);
                let present = before.component_by_key(client).is_some();
                assert_eq!(resolved.is_ok() && present, applied.is_ok(), "{op:?}");
                tally.moves += usize::from(applied.is_ok());
            }
            ModelOp::MoveClientGroup { clients, to_group } => {
                let resolved = Style::resolve_move(&before, clients, *to_group);
                assert_eq!(resolved.is_ok(), applied.is_ok(), "{op:?}");
                tally.group_moves += usize::from(applied.is_ok());
            }
            &ModelOp::AddServer { group, server } => {
                let free = before.component_by_key(server).is_none();
                assert_eq!(
                    is_group(&before, group.as_str()) && free,
                    applied.is_ok(),
                    "{op:?}"
                );
                tally.adds += usize::from(applied.is_ok());
            }
            &ModelOp::RemoveServer { server } => {
                let resolved = Style::resolve_remove(&before, server);
                assert_eq!(resolved.is_ok(), applied.is_ok(), "{op:?}");
                let last = siblings(&before, server.as_str()) == Some(1);
                tally.removals += usize::from(applied.is_ok());
                if applied.is_ok() && last {
                    let found = Style::validate(&sys);
                    assert!(!found.is_empty(), "{op:?}");
                    applied_ops.push(op.clone());
                    assert_eq!(Style::script_violations(&start, &applied_ops), found);
                    applied_ops.pop();
                    tally.breaking_removals += 1;
                    sys = before;
                    continue;
                }
            }
        }
        assert_eq!(Style::validate(&sys), Vec::new(), "after {op:?}");
        if applied.is_ok() {
            applied_ops.push(op);
        }
        assert_eq!(Style::script_violations(&start, &applied_ops), Vec::new());
    }
}

/// After every `Ok` of the three planning operators, `validate` is empty;
/// `resolve_move` and `resolve_remove` agree with applying their op; a
/// failed op changes nothing; a `RemoveServer` that applies breaks the style
/// exactly when it removes its group's last server (that model is dropped,
/// and the script goes on from the one before it); and `script_violations`
/// over the ops applied so far reports what `validate` reports. Fleets have 1–4 groups of 1–3 servers,
/// 1–60 clients and up to 7 earlier moves.
#[test]
fn the_planning_operators_keep_the_style() {
    let mut tally = Tally::default();
    for case in 0..256 {
        let mut rng = TestRng::deterministic("style_ops", case);
        let servers = vec(0usize..3, 1..5).generate(&mut rng);
        let homes = vec(0usize..4, 1..61).generate(&mut rng);
        let earlier = vec((0usize..60, 0usize..4), 0..8).generate(&mut rng);
        let op = (0usize..4, 0usize..70, 0usize..7, vec(0usize..70, 0..12));
        let script = vec(op, 1..16).generate(&mut rng);
        let sys = fleet(&servers, &homes, &earlier);
        run_script(sys, servers.len(), homes.len(), script, &mut tally);
    }
    // Every branch above is exercised, failures included.
    let Tally {
        moves,
        group_moves,
        adds,
        removals,
        breaking_removals,
        failures,
    } = tally;
    for (what, n) in [
        ("moves", moves),
        ("class moves", group_moves),
        ("adds", adds),
        ("removals", removals),
        ("breaking removals", breaking_removals),
        ("failures", failures),
    ] {
        assert!(n >= 25, "only {n} {what}: {tally:?}");
    }
}
