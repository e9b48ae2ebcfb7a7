//! Hardness and lower-bound gadget generators.
//!
//! * [`rtt_reduction`] — the Theorem 2 reduction from the Restricted
//!   Timetable problem (Even, Itai, Shamir) to FS-MRT with ρ = 3, which
//!   shows a 4/3 inapproximability threshold;
//! * [`figure_4a`] — the Lemma 5.1 construction (no online algorithm has a
//!   bounded competitive ratio for average response time);
//! * [`figure_4b`] — the Lemma 5.2 construction (3/2 online lower bound for
//!   maximum response time).
//!
//! Rounds are 0-based in this codebase; the paper's round `h` is `h - 1`
//! here, so the Theorem 2 target response bound stays ρ = 3.

use fss_core::prelude::*;

/// A Restricted Timetable instance (Definition 4.1): hour set `H =
/// {1, 2, 3}` is implicit; `teachers[i]` is the hour set `T_i` (each of
/// size ≥ 2, values in 1..=3) and `classes[i] = g(i)` the class set of
/// teacher `i` (0-based class ids, `|g(i)| = |T_i|`).
#[derive(Debug, Clone)]
pub struct RttInstance {
    /// `T_i ⊆ {1,2,3}`, sorted, `|T_i| >= 2`.
    pub teachers: Vec<Vec<u8>>,
    /// `g(i)`: the classes teacher `i` must meet, 0-based.
    pub classes: Vec<Vec<u32>>,
    /// Number of classes `m'`.
    pub num_classes: usize,
}

impl RttInstance {
    /// Validate Definition 4.1's structural requirements.
    pub(crate) fn assert_valid(&self) {
        assert_eq!(self.teachers.len(), self.classes.len());
        for (i, (t, g)) in self.teachers.iter().zip(&self.classes).enumerate() {
            assert!(
                (2..=3).contains(&t.len()),
                "teacher {i}: |T_i| must be 2 or 3"
            );
            assert!(
                t.windows(2).all(|w| w[0] < w[1]),
                "teacher {i}: unsorted T_i"
            );
            assert!(
                t.iter().all(|&h| (1..=3).contains(&h)),
                "teacher {i}: hour out of range"
            );
            assert_eq!(t.len(), g.len(), "teacher {i}: |g(i)| != |T_i|");
            assert!(g.iter().all(|&j| (j as usize) < self.num_classes));
            let mut gg = g.clone();
            gg.sort_unstable();
            gg.dedup();
            assert_eq!(gg.len(), g.len(), "teacher {i}: duplicate classes");
        }
    }
}

/// The FS-MRT instance of the Theorem 2 reduction. RTT is satisfiable iff
/// the returned instance admits a schedule with maximum response time ≤ 3.
///
/// Port layout: inputs `0..m` are the teacher ports `p_i`; outputs `0..m'`
/// are the class ports `q_j`; further ports are the gadget blockers of
/// construction steps 3–5.
pub fn rtt_reduction(rtt: &RttInstance) -> Instance {
    rtt.assert_valid();
    let m = rtt.teachers.len();
    let m_prime = rtt.num_classes;

    // Count extra ports. Step 3: three new inputs per class. Steps 4/5: one
    // new output and three new inputs per teacher with |T_i| = 2 and
    // 1 ∈ T_i (T_i = {1,3} or {1,2}); T_i = {2,3} needs no gadget (the
    // release time excludes hour 1 on its own), |T_i| = 3 none either.
    let needs_gadget = |t: &Vec<u8>| t.len() == 2 && t[0] == 1; // {1,2} or {1,3}
    let gadget_teachers: Vec<usize> = (0..m).filter(|&i| needs_gadget(&rtt.teachers[i])).collect();

    let num_inputs = m + 3 * m_prime + 3 * gadget_teachers.len();
    let num_outputs = m_prime + gadget_teachers.len();
    let mut b = InstanceBuilder::new(Switch::uniform(num_inputs, num_outputs, 1));

    // Steps 1-2: teaching flows p_i -> q_j released at min(T_i) (0-based).
    for i in 0..m {
        let release = u64::from(rtt.teachers[i][0]) - 1;
        for &j in &rtt.classes[i] {
            b.unit_flow(i as u32, j, release);
        }
    }
    // Step 3: for each class j, three blocker flows from fresh inputs
    // released at paper-round 4 (0-based 3): they saturate q_j in rounds
    // 4-6, forcing all teaching into rounds 1-3.
    for j in 0..m_prime {
        for k in 0..3 {
            let w = (m + 3 * j + k) as u32;
            b.unit_flow(w, j as u32, 3);
        }
    }
    // Steps 4-5: for each gadget teacher, a dedicated output q*_i and a
    // timing flow p_i -> q*_i that must run exactly in the hour excluded
    // from T_i, pinned by three blockers on q*_i.
    for (gi, &i) in gadget_teachers.iter().enumerate() {
        let q_star = (m_prime + gi) as u32;
        let base_w = (m + 3 * m_prime + 3 * gi) as u32;
        let t = &rtt.teachers[i];
        if t == &vec![1, 3] {
            // Step 4: p_i -> q* released paper-round 2 (0-based 1);
            // blockers released paper-round 3 (0-based 2) occupy q* in
            // rounds 3, 4, 5 — so p_i -> q* must run in round 2.
            b.unit_flow(i as u32, q_star, 1);
            for k in 0..3 {
                b.unit_flow(base_w + k, q_star, 2);
            }
        } else {
            debug_assert_eq!(t, &vec![1, 2]);
            // Step 5: p_i -> q* released paper-round 3 (0-based 2);
            // blockers released paper-round 4 (0-based 3) pin it to round 3.
            b.unit_flow(i as u32, q_star, 2);
            for k in 0..3 {
                b.unit_flow(base_w + k, q_star, 3);
            }
        }
    }
    b.build().expect("reduction respects model invariants")
}

/// Lemma 5.1 construction (Figure 4(a)): ports `{1, 2, 3, 4}` become
/// inputs `{0: p1, 1: p4}` and outputs `{0: q2, 1: q3}`. For each round
/// `t < T` two solid flows `(p1, q2)` and `(p1, q3)` are released; for
/// each round `T <= t < M` one dashed flow `(p4, q3)`. Any online algorithm
/// accumulates Ω(T) backlog on port 2 or 3 and the dashed stream then
/// forces average response time M/T times optimal.
pub fn figure_4a(t_rounds: u64, m_rounds: u64) -> Instance {
    assert!(t_rounds >= 1 && m_rounds > t_rounds);
    let mut b = InstanceBuilder::new(Switch::uniform(2, 2, 1));
    for t in 0..t_rounds {
        b.unit_flow(0, 0, t); // (1, 2)
        b.unit_flow(0, 1, t); // (1, 3)
    }
    for t in t_rounds..m_rounds {
        b.unit_flow(1, 1, t); // (4, 3)
    }
    b.build().expect("figure 4a instance is valid")
}

/// Lemma 5.2 construction (Figure 4(b)): inputs `{0: p1, 1: p4, 2: p7}`,
/// outputs `{0: q2, 1: q3, 2: q5, 3: q6}`. Solid flows released in
/// paper-round 1 (0-based 0): `(1,3), (1,2), (4,5), (4,6)`; dashed flows
/// released in round 2 (0-based 1): `(7,3), (7,5)`. The offline optimum
/// has maximum response time 2; every online algorithm is forced to 3.
pub fn figure_4b() -> Instance {
    let mut b = InstanceBuilder::new(Switch::uniform(3, 4, 1));
    b.unit_flow(0, 1, 0); // (1,3)
    b.unit_flow(0, 0, 0); // (1,2)
    b.unit_flow(1, 2, 0); // (4,5)
    b.unit_flow(1, 3, 0); // (4,6)
    b.unit_flow(2, 1, 1); // (7,3)
    b.unit_flow(2, 2, 1); // (7,5)
    b.build().expect("figure 4b instance is valid")
}

/// A small satisfiable RTT instance (one teacher, `T = {1,3}`, two
/// classes); its reduction has 12 flows — within reach of the exact solver.
pub fn small_satisfiable_rtt() -> RttInstance {
    RttInstance {
        teachers: vec![vec![1, 3]],
        classes: vec![vec![0, 1]],
        num_classes: 2,
    }
}

/// An unsatisfiable RTT instance: three teachers, all with `T = {1,3}`,
/// all needing the same two classes. Each class can host at most one
/// teacher per hour, so two hours serve at most two of the three teachers.
pub fn small_unsatisfiable_rtt() -> RttInstance {
    RttInstance {
        teachers: vec![vec![1, 3], vec![1, 3], vec![1, 3]],
        classes: vec![vec![0, 1], vec![0, 1], vec![0, 1]],
        num_classes: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::min_max_response;
    use crate::mrt::{lp_feasible, solve_mrt};

    #[test]
    fn figure_4b_offline_optimum_is_two() {
        let inst = figure_4b();
        let (opt, sched) = min_max_response(&inst);
        assert_eq!(opt, 2, "Lemma 5.2: offline optimum is 2");
        validate::check(&inst, &sched, &inst.switch).unwrap();
    }

    #[test]
    fn figure_4a_shape() {
        let inst = figure_4a(4, 10);
        assert_eq!(inst.n(), 2 * 4 + 6);
        assert!(inst.is_unit_demand());
        // All solid flows share input 0.
        assert_eq!(inst.in_port_load(0), 8);
    }

    #[test]
    fn satisfiable_rtt_schedules_with_rho_three() {
        let inst = rtt_reduction(&small_satisfiable_rtt());
        assert_eq!(inst.n(), 12);
        let (opt, _) = min_max_response(&inst);
        assert_eq!(opt, 3, "satisfiable RTT reduces to max response exactly 3");
    }

    #[test]
    fn unsatisfiable_rtt_lp_infeasible_at_rho_three() {
        let inst = rtt_reduction(&small_unsatisfiable_rtt());
        // Aggregate capacity argument makes even the LP infeasible: each
        // class output has capacity 2 across hours {1,3} but demand 3.
        assert!(!lp_feasible(&inst, 3).unwrap());
        assert!(lp_feasible(&inst, 4).unwrap());
    }

    #[test]
    fn satisfiable_rtt_solved_by_mrt_pipeline() {
        let inst = rtt_reduction(&small_satisfiable_rtt());
        let r = solve_mrt(&inst, None).unwrap();
        assert_eq!(r.rho_star, 3);
        assert!(r.augmentation <= 1);
    }

    #[test]
    #[should_panic(expected = "|T_i|")]
    fn invalid_rtt_rejected() {
        let bad = RttInstance {
            teachers: vec![vec![1]],
            classes: vec![vec![0]],
            num_classes: 1,
        };
        bad.assert_valid();
    }

    #[test]
    fn reduction_handles_all_gadget_cases() {
        // Teachers covering {1,2}, {1,3}, {2,3}, {1,2,3}.
        let rtt = RttInstance {
            teachers: vec![vec![1, 2], vec![1, 3], vec![2, 3], vec![1, 2, 3]],
            classes: vec![vec![0, 1], vec![2, 3], vec![0, 2], vec![1, 3, 4]],
            num_classes: 5,
        };
        let inst = rtt_reduction(&rtt);
        // Flows: 2+2+2+3 teaching + 3*5 class blockers + 2 gadgets * 4.
        assert_eq!(inst.n(), 9 + 15 + 8);
        // Teacher with T={2,3} has release 1 (paper hour 2).
        let t2_flows: Vec<_> = inst
            .flows
            .iter()
            .filter(|f| f.src == 2 && f.release == 1)
            .collect();
        assert_eq!(t2_flows.len(), 2);
    }
}
