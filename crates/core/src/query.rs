//! Runtime queries answered by the (simulated) environment.
//!
//! Repair tactics consult the runtime layer through the
//! [`RuntimeQuery`](repair::RuntimeQuery) trait: `findGoodSGroup` needs live
//! bandwidth predictions, and a tactic that recruits needs to know how many
//! spare servers exist. This adapter answers both from the running
//! [`GridApp`]. Which spare is recruited is decided later, when the repair's
//! `ConnectServer` executes ([`GridApp::find_server_for_group`]).

use gridapp::{GridApp, Key};
use repair::RuntimeQuery;

/// Answers runtime queries from the live grid application.
pub struct AppQuery<'a> {
    app: &'a GridApp,
}

impl<'a> AppQuery<'a> {
    /// Wraps the application.
    pub fn new(app: &'a GridApp) -> Self {
        AppQuery { app }
    }
}

impl RuntimeQuery for AppQuery<'_> {
    fn find_good_server_group(&self, client: Key, min_bandwidth_bps: f64) -> Option<Key> {
        let mut best: Option<(Key, f64)> = None;
        for group in self.app.group_names() {
            let Ok(bw) = self.app.remos_get_flow(client, group) else {
                continue;
            };
            if bw <= min_bandwidth_bps {
                continue;
            }
            match best {
                Some((_, best_bw)) if best_bw >= bw => {}
                _ => best = Some((group, bw)),
            }
        }
        best.map(|(group, _)| group)
    }

    /// The spare pool is global: a recruit that cannot come from the
    /// group's own rack comes from any other, so every live spare counts.
    fn spare_server_count(&self, _group: Key) -> usize {
        self.app.spare_servers().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridapp::{GridConfig, SERVER_GROUP_1, SERVER_GROUP_2};
    use simnet::SimTime;

    #[test]
    fn best_group_follows_available_bandwidth() {
        let mut app = GridApp::build(GridConfig::default()).unwrap();
        // Initially both groups are reachable at high bandwidth; after the
        // squeeze only ServerGrp2 qualifies for User3.
        app.set_competition_sg1(SimTime::from_secs(1.0), 9.995e6);
        let query = AppQuery::new(&app);
        let best = query.find_good_server_group(Key::new("User3"), 10_000.0);
        assert_eq!(best, Some(SERVER_GROUP_2.into()));
        assert!(app.remos_get_flow("User3", SERVER_GROUP_1).unwrap() < 10_000.0);
        assert!(app.remos_get_flow("User3", SERVER_GROUP_2).unwrap() > 1.0e6);
    }

    #[test]
    fn no_group_qualifies_above_impossible_threshold() {
        let app = GridApp::build(GridConfig::default()).unwrap();
        let query = AppQuery::new(&app);
        let user3 = Key::new("User3");
        assert!(query.find_good_server_group(user3, 1.0e12).is_none());
    }

    #[test]
    fn spare_server_lookup_delegates_to_the_app() {
        let app = GridApp::build(GridConfig::default()).unwrap();
        let query = AppQuery::new(&app);
        assert_eq!(query.spare_server_count(SERVER_GROUP_1.into()), 2);
        // A positive count is exactly when recruitment finds a spare.
        assert_eq!(app.find_server_for_group(SERVER_GROUP_1), Some("S4".into()));
    }

    #[test]
    fn spare_count_excludes_crashed_spares() {
        let mut app = GridApp::build(GridConfig::default()).unwrap();
        app.crash_server(SimTime::from_secs(1.0), "S4").unwrap();
        let query = AppQuery::new(&app);
        assert_eq!(query.spare_server_count(SERVER_GROUP_1.into()), 1);
        assert_eq!(app.find_server_for_group(SERVER_GROUP_1), Some("S7".into()));
        app.crash_server(SimTime::from_secs(2.0), "S7").unwrap();
        let query = AppQuery::new(&app);
        assert_eq!(query.spare_server_count(SERVER_GROUP_1.into()), 0);
        assert_eq!(app.find_server_for_group(SERVER_GROUP_1), None);
    }
}
