//! Runtime queries answered by the (simulated) environment.
//!
//! Repair tactics consult the runtime layer through the
//! [`RuntimeQuery`](repair::RuntimeQuery) trait: `findGoodSGroup` needs live
//! bandwidth predictions and `findServer` needs to know which spare servers
//! exist. This adapter answers both from the running [`GridApp`].

use gridapp::GridApp;
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
    fn find_good_server_group(&self, client: &str, min_bandwidth_bps: f64) -> Option<String> {
        let mut best: Option<(String, f64)> = None;
        for group in self.app.group_names() {
            let Ok(bw) = self.app.remos_get_flow(client, &group) else {
                continue;
            };
            if bw <= min_bandwidth_bps {
                continue;
            }
            match &best {
                Some((_, best_bw)) if *best_bw >= bw => {}
                _ => best = Some((group, bw)),
            }
        }
        best.map(|(group, _)| group)
    }

    fn predicted_bandwidth(&self, client: &str, group: &str) -> Option<f64> {
        self.app.remos_get_flow(client, group).ok()
    }

    fn find_spare_server(&self, group: &str) -> Option<String> {
        // Attachment-aware: prefer a spare on the group's own router so a
        // recruit does not cross racks just because its name sorts first.
        self.app.find_server_for_group(group, None, 0.0)
    }

    fn spare_server_count(&self, _group: &str) -> usize {
        self.app.spare_servers().len()
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
        let best = query.find_good_server_group("User3", 10_000.0).unwrap();
        assert_eq!(best, SERVER_GROUP_2);
        assert!(query.predicted_bandwidth("User3", SERVER_GROUP_1).unwrap() < 10_000.0);
        assert!(query.predicted_bandwidth("User3", SERVER_GROUP_2).unwrap() > 1.0e6);
    }

    #[test]
    fn no_group_qualifies_above_impossible_threshold() {
        let app = GridApp::build(GridConfig::default()).unwrap();
        let query = AppQuery::new(&app);
        assert!(query.find_good_server_group("User3", 1.0e12).is_none());
    }

    #[test]
    fn spare_server_lookup_delegates_to_the_app() {
        let app = GridApp::build(GridConfig::default()).unwrap();
        let query = AppQuery::new(&app);
        assert_eq!(
            query.find_spare_server(SERVER_GROUP_1),
            Some("S4".to_string())
        );
        assert_eq!(query.spare_server_count(SERVER_GROUP_1), 2);
    }

    #[test]
    fn spare_count_excludes_crashed_spares() {
        let mut app = GridApp::build(GridConfig::default()).unwrap();
        app.crash_server(SimTime::from_secs(1.0), "S4").unwrap();
        let query = AppQuery::new(&app);
        assert_eq!(query.spare_server_count(SERVER_GROUP_1), 1);
        assert_eq!(
            query.find_spare_server(SERVER_GROUP_1),
            Some("S7".to_string())
        );
    }
}
