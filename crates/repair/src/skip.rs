//! Typed records of repairs the engine could not make.
//!
//! When no outstanding violation can be repaired, the engine has passed
//! over every candidate: some because their subject is still settling
//! after a repair, most because no tactic of their strategy applied. At
//! fleet scale nearly every candidate fails the same preconditions, so a
//! [`Skip`] stores each candidate as interned names and an index into the
//! distinct lists of tactic reasons it has met: the hundreds of candidates
//! of one skip usually share one list. Nothing is formatted until the skip
//! is displayed, as the trace line the engine once built.

use crate::tactic::NotApplicable;
use archmodel::Key;
use std::fmt;

/// One tactic's reason for not applying, under the tactic's name.
#[derive(Debug, Clone, PartialEq)]
pub struct Declined {
    /// The tactic's name.
    pub tactic: Key,
    /// Why its precondition did not hold.
    pub reason: NotApplicable,
}

/// Why the engine passed over one candidate violation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Passed {
    /// The subject was repaired less than the settle window ago.
    Settling { subject: Key, remaining_secs: f64 },
    /// No tactic of the subject's strategy applied: the reasons are the
    /// skip's list `list`, about `client`.
    NoTactic {
        subject: Key,
        client: Key,
        list: u32,
    },
}

/// A repair the engine could not make: every candidate it passed over, in
/// the order it took them. It displays as the `" | "`-joined notes the
/// trace reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Skip {
    passed: Vec<Passed>,
    /// Each distinct list of tactic reasons, once.
    lists: Vec<Box<[Declined]>>,
}

impl Skip {
    /// Notes that `subject` is settling for another `remaining_secs`; room
    /// is made, at the first note, for the `left` candidates from here on.
    pub(crate) fn settling(&mut self, left: usize, subject: Key, remaining_secs: f64) {
        self.reserve(left);
        let passed = Passed::Settling {
            subject,
            remaining_secs,
        };
        self.passed.push(passed);
    }

    /// Notes that no tactic applied to `subject`, for the `reasons` given
    /// about `client`; a list of reasons already met is not stored again.
    pub(crate) fn no_tactic(
        &mut self,
        left: usize,
        subject: Key,
        client: Key,
        reasons: &[Declined],
    ) {
        self.reserve(left);
        let list = match self.lists.iter().rposition(|list| **list == *reasons) {
            Some(list) => list,
            None => {
                self.lists.push(reasons.into());
                self.lists.len() - 1
            }
        };
        let list = u32::try_from(list).expect("fewer than 2^32 reason lists");
        self.passed.push(Passed::NoTactic {
            subject,
            client,
            list,
        });
    }

    /// Room for `left` more candidates, made once: a skip is exactly as
    /// long as the candidates from its first note on.
    fn reserve(&mut self, left: usize) {
        if self.passed.capacity() == 0 {
            self.passed.reserve_exact(left);
        }
    }
}

impl fmt::Display for Skip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, passed) in self.passed.iter().enumerate() {
            if i > 0 {
                f.write_str(" | ")?;
            }
            match *passed {
                Passed::Settling {
                    subject,
                    remaining_secs,
                } => write!(
                    f,
                    "repair for {subject} suppressed for another {remaining_secs:.1} s \
                     (settle window)"
                )?,
                Passed::NoTactic {
                    subject,
                    client,
                    list,
                } => {
                    write!(f, "no applicable tactic for {subject}: ")?;
                    for (j, declined) in self.lists[list as usize].iter().enumerate() {
                        if j > 0 {
                            f.write_str("; ")?;
                        }
                        let reason = declined.reason.display(client);
                        write!(f, "{}: {reason}", declined.tactic)?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &str) -> Key {
        Key::new(name)
    }

    /// Each reason renders what the tactic formatted for it while reasons
    /// were text: the format strings below are the ones the built-in
    /// tactics used.
    #[test]
    fn every_reason_renders_the_text_its_tactic_formatted() {
        let client = "User10";
        let (group, overloaded) = ("ServerGrp2", ["ServerGrp1", "ServerGrp3"]);
        let (bw, min_bandwidth, live) = (5_000_000.0_f64, 10_000.0_f64, 2.0_f64);
        let owned: Vec<String> = overloaded.iter().map(|g| g.to_string()).collect();
        let cases = [
            (
                NotApplicable::NoClient,
                "violation does not identify a client".to_string(),
            ),
            (
                NotApplicable::NoOverloadedGroup,
                format!("no overloaded server group connected to {client}"),
            ),
            (
                NotApplicable::NoSpareServer(overloaded.iter().map(|g| key(g)).collect()),
                format!("server groups {owned:?} are overloaded but no spare server is available"),
            ),
            (
                NotApplicable::BandwidthAboveMinimum {
                    bps: bw,
                    min_bps: min_bandwidth,
                },
                format!(
                    "bandwidth {bw:.0} bps for {client} is above the {min_bandwidth:.0} bps minimum"
                ),
            ),
            (
                NotApplicable::NoBandwidthObservation,
                format!("no bandwidth observation for {client} yet"),
            ),
            (
                NotApplicable::AlreadyConnected(key(group)),
                format!("{client} is already connected to {group}"),
            ),
            (
                NotApplicable::NoRemovableServer,
                "no underutilised server group with removable servers".to_string(),
            ),
            (
                NotApplicable::NoGroup,
                "violation does not identify a server group".to_string(),
            ),
            (
                NotApplicable::NoDeadReplicas(key(group)),
                format!("no dead replicas recorded for {group}"),
            ),
            (
                NotApplicable::FullyDead(key(group)),
                format!("{group} is fully dead and no spare server is available"),
            ),
            (
                NotApplicable::StillLive {
                    group: key(group),
                    live,
                },
                format!("{group} still has {live:.0} live replicas"),
            ),
            (
                NotApplicable::ServesNoClients(key(group)),
                format!("{group} serves no clients"),
            ),
            (
                NotApplicable::Other("precondition failed".into()),
                "precondition failed".to_string(),
            ),
        ];
        for (reason, old) in cases {
            assert_eq!(reason.display(key(client)).to_string(), old, "{reason:?}");
        }
    }

    #[test]
    fn a_settling_note_renders_the_damping_text() {
        let (subject, remaining) = ("User3", 109.96_f64);
        let mut skip = Skip::default();
        skip.settling(1, key(subject), remaining);
        let old = format!(
            "repair for {} suppressed for another {:.1} s (settle window)",
            subject, remaining
        );
        assert_eq!(skip.to_string(), old);
    }

    #[test]
    fn a_no_tactic_note_renders_the_engine_text_and_shares_its_list() {
        let declined = |tactic: &str, reason| Declined {
            tactic: key(tactic),
            reason,
        };
        let reasons = [
            declined("fixServerLoad", NotApplicable::NoOverloadedGroup),
            declined("fixBandwidth", NotApplicable::NoBandwidthObservation),
        ];
        let mut skip = Skip::default();
        let mut old = Vec::new();
        for client in ["User10", "User12", "User14"] {
            skip.no_tactic(4, key(client), key(client), &reasons);
            let text: Vec<String> = [
                format!("fixServerLoad: no overloaded server group connected to {client}"),
                format!("fixBandwidth: no bandwidth observation for {client} yet"),
            ]
            .into();
            old.push(format!(
                "no applicable tactic for {}: {}",
                client,
                text.join("; ")
            ));
        }
        // A role's violation: the subject is the role, the reasons are
        // about its client.
        let other = [declined("fixServerLoad", NotApplicable::NoClient)];
        skip.no_tactic(1, key("User16.role"), key("User16"), &other);
        old.push(
            "no applicable tactic for User16.role: fixServerLoad: violation does not identify \
             a client"
                .to_string(),
        );
        assert_eq!(skip.to_string(), old.join(" | "));
        assert_eq!((skip.passed.len(), skip.lists.len()), (4, 2));
        assert_eq!(skip.passed.capacity(), 4, "room is made once, exactly");
    }

    #[test]
    fn layout_a_passed_candidate_is_three_words() {
        assert!(std::mem::size_of::<Passed>() <= 24);
    }
}
