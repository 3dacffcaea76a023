//! Scheduling policies for the serving layer.

/// How a bank picks the next request among its queued candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedPolicy {
    /// First-come-first-served: oldest request across the bank's
    /// queues, regardless of head positions.
    #[default]
    Fcfs,
    /// FR-FCFS-style row-hit-first: a candidate whose stripe group's
    /// head is already aligned (zero shift — the racetrack analogue of
    /// an open DRAM row) bypasses older work; ties and the no-hit case
    /// fall back to arrival order.
    FrFcfs,
    /// Shortest-shift-distance-first inside one stripe group: among the
    /// requests of the group that holds the bank's oldest request,
    /// picks the lowest estimated service latency under the bank's
    /// p-ECC/STS cost model and that group's head position, oldest
    /// first on ties. Other groups wait their turn in arrival order
    /// (their heads are independent, so deferring a group saves no
    /// shift work). A request at the starvation bound goes first.
    ShiftAware,
}

impl SchedPolicy {
    /// All policies, in comparison order.
    pub const ALL: [SchedPolicy; 3] = [
        SchedPolicy::Fcfs,
        SchedPolicy::FrFcfs,
        SchedPolicy::ShiftAware,
    ];

    /// Stable label used in CLI flags, reports and JSON rows.
    pub fn label(&self) -> &'static str {
        match self {
            SchedPolicy::Fcfs => "fcfs",
            SchedPolicy::FrFcfs => "fr-fcfs",
            SchedPolicy::ShiftAware => "shift-aware",
        }
    }

    /// Parses a [`SchedPolicy::label`] back into a policy.
    pub fn by_name(name: &str) -> Option<SchedPolicy> {
        SchedPolicy::ALL.into_iter().find(|p| p.label() == name)
    }
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for p in SchedPolicy::ALL {
            assert_eq!(SchedPolicy::by_name(p.label()), Some(p));
            assert_eq!(format!("{p}"), p.label());
        }
        assert_eq!(SchedPolicy::by_name("nope"), None);
    }
}
