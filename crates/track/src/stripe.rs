//! The physical tape: cells, alignment and shift application.

use crate::bit::Bit;
use crate::geometry::StripeGeometry;
use rtm_model::shift::ShiftOutcome;
use std::fmt;

/// Errors from stripe operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StripeError {
    /// An access targeted a slot outside the physical stripe.
    SlotOutOfRange {
        /// Requested slot.
        slot: usize,
        /// Physical stripe length.
        len: usize,
    },
    /// A write was attempted while the domains are not aligned to the
    /// notches (stop-in-middle state) — the write current would program
    /// an unpredictable domain.
    Misaligned,
    /// A domain access would fall outside the data region at the current
    /// head position (controller bug or unrecovered position error).
    HeadOutOfRange {
        /// Believed head position.
        head: i64,
        /// Maximum legal head position.
        max: usize,
    },
}

impl fmt::Display for StripeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StripeError::SlotOutOfRange { slot, len } => {
                write!(f, "slot {slot} outside stripe of length {len}")
            }
            StripeError::Misaligned => {
                write!(
                    f,
                    "stripe is in a stop-in-middle state; access is indeterminate"
                )
            }
            StripeError::HeadOutOfRange { head, max } => {
                write!(f, "head position {head} outside [0, {max}]")
            }
        }
    }
}

impl std::error::Error for StripeError {}

/// A bare physical stripe: a row of domains that can be shifted along
/// the wire, with domains falling off the ends replaced by [`Bit::Unknown`].
///
/// `Stripe` knows nothing about segments or ports — that layer is
/// [`SegmentedStripe`]. It *does* track ground truth for diagnostics:
/// the actual cumulative shift applied (including error offsets) and
/// whether the walls are currently pinned in notches.
#[derive(Debug, Clone, PartialEq)]
pub struct Stripe {
    cells: Vec<Bit>,
    aligned: bool,
    /// Ground-truth cumulative shift (right positive), including errors.
    actual_offset: i64,
    shifts_applied: u64,
}

impl Stripe {
    /// Creates a stripe of `len` domains, all unknown (as fabricated).
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "stripe must have at least one domain");
        Self {
            cells: vec![Bit::Unknown; len],
            aligned: true,
            actual_offset: 0,
            shifts_applied: 0,
        }
    }

    /// Creates a stripe with the given initial cell contents.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty.
    pub fn with_cells(cells: Vec<Bit>) -> Self {
        assert!(!cells.is_empty(), "stripe must have at least one domain");
        Self {
            cells,
            aligned: true,
            actual_offset: 0,
            shifts_applied: 0,
        }
    }

    /// Physical length in domains.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always false — a stripe has at least one domain.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when all walls are pinned in notch regions.
    pub fn is_aligned(&self) -> bool {
        self.aligned
    }

    /// Ground-truth cumulative shift including error offsets
    /// (diagnostic; a real controller cannot observe this).
    pub fn actual_offset(&self) -> i64 {
        self.actual_offset
    }

    /// Number of shift operations applied.
    pub fn shifts_applied(&self) -> u64 {
        self.shifts_applied
    }

    /// A view of the raw cells (diagnostic).
    pub fn cells(&self) -> &[Bit] {
        &self.cells
    }

    /// Reads the domain at physical `slot` through a port.
    ///
    /// Returns [`Bit::Unknown`] when the stripe is misaligned: the MTJ
    /// under the port straddles two domains and senses garbage.
    ///
    /// # Errors
    ///
    /// [`StripeError::SlotOutOfRange`] if `slot` is outside the stripe.
    pub fn read_slot(&self, slot: usize) -> Result<Bit, StripeError> {
        let cell = self
            .cells
            .get(slot)
            .copied()
            .ok_or(StripeError::SlotOutOfRange {
                slot,
                len: self.cells.len(),
            })?;
        if self.aligned {
            Ok(cell)
        } else {
            Ok(Bit::Unknown)
        }
    }

    /// Writes the domain at physical `slot` through a read/write port.
    ///
    /// # Errors
    ///
    /// * [`StripeError::Misaligned`] while in a stop-in-middle state;
    /// * [`StripeError::SlotOutOfRange`] if `slot` is outside the stripe.
    pub fn write_slot(&mut self, slot: usize, bit: Bit) -> Result<(), StripeError> {
        if !self.aligned {
            return Err(StripeError::Misaligned);
        }
        let len = self.cells.len();
        let cell = self
            .cells
            .get_mut(slot)
            .ok_or(StripeError::SlotOutOfRange { slot, len })?;
        *cell = bit;
        Ok(())
    }

    /// Applies a physical movement of `moved` steps (positive = data
    /// moves right) and records whether walls ended pinned.
    ///
    /// Domains pushed past either end are lost; domains entering are
    /// [`Bit::Unknown`].
    pub fn apply_movement(&mut self, moved: i64, aligned_after: bool) {
        let len = self.cells.len() as i64;
        let m = moved.clamp(-len, len);
        if m > 0 {
            let m = m as usize;
            self.cells.rotate_right(m);
            for c in &mut self.cells[..m] {
                *c = Bit::Unknown;
            }
        } else if m < 0 {
            let m = (-m) as usize;
            self.cells.rotate_left(m);
            let start = self.cells.len() - m;
            for c in &mut self.cells[start..] {
                *c = Bit::Unknown;
            }
        }
        self.actual_offset += moved;
        self.aligned = aligned_after;
        self.shifts_applied += 1;
    }

    /// Applies a shift *intended* to move `intended` steps (positive =
    /// right) whose stochastic outcome was `outcome`.
    ///
    /// Out-of-step offsets and stop-in-middle fractions from the fault
    /// model are expressed in the direction of travel; this translates
    /// them into absolute movement. Returns the realised movement in
    /// steps (the integer notch the walls ended at, or just below for a
    /// stop-in-middle outcome).
    ///
    /// # Panics
    ///
    /// Panics if `intended == 0` (a zero-distance shift is a controller
    /// no-op and never reaches the stripe).
    pub fn apply_shift(&mut self, intended: i64, outcome: ShiftOutcome) -> i64 {
        assert!(intended != 0, "zero-distance shifts never reach the stripe");
        let dir = intended.signum();
        match outcome {
            ShiftOutcome::Pinned { offset } => {
                let moved = intended + dir * offset as i64;
                self.apply_movement(moved, true);
                moved
            }
            ShiftOutcome::StopInMiddle { lower, .. } => {
                // The walls sit between notches (lower, lower + 1) in the
                // direction of travel.
                let moved = intended + dir * lower as i64;
                self.apply_movement(moved, false);
                moved
            }
        }
    }

    /// Re-pins walls into notches (models the recovery pulse a
    /// controller issues after detecting a stop-in-middle state; the
    /// data movement, if any, is applied separately).
    pub fn realign(&mut self) {
        self.aligned = true;
    }
}

/// A geometry-aware data stripe: a [`Stripe`] plus segment layout and
/// the *believed* head position a controller would track.
///
/// The believed head position advances by the **intended** distance of
/// every shift; the underlying stripe moves by the **realised** distance.
/// After an undetected position error the two disagree — which is
/// exactly how silent data corruption manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedStripe {
    stripe: Stripe,
    geometry: StripeGeometry,
    believed_head: i64,
}

impl SegmentedStripe {
    /// Creates a stripe with all data domains programmed to zero.
    pub fn zeroed(geometry: StripeGeometry) -> Self {
        let mut cells = vec![Bit::Unknown; geometry.total_len()];
        for c in cells.iter_mut().take(geometry.data_len()) {
            *c = Bit::Zero;
        }
        Self {
            stripe: Stripe::with_cells(cells),
            geometry,
            believed_head: 0,
        }
    }

    /// Creates a stripe with the given data-domain contents.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != geometry.data_len()`.
    pub fn with_data(geometry: StripeGeometry, data: &[Bit]) -> Self {
        assert_eq!(
            data.len(),
            geometry.data_len(),
            "data length must match geometry"
        );
        let mut cells = vec![Bit::Unknown; geometry.total_len()];
        cells[..data.len()].copy_from_slice(data);
        Self {
            stripe: Stripe::with_cells(cells),
            geometry,
            believed_head: 0,
        }
    }

    /// The layout.
    pub fn geometry(&self) -> &StripeGeometry {
        &self.geometry
    }

    /// The believed head position (what the controller thinks).
    pub fn believed_head(&self) -> i64 {
        self.believed_head
    }

    /// The underlying physical stripe (diagnostic).
    pub fn stripe(&self) -> &Stripe {
        &self.stripe
    }

    /// Mutable access to the underlying stripe, for fault-model driven
    /// shifting by a controller.
    pub fn stripe_mut(&mut self) -> &mut Stripe {
        &mut self.stripe
    }

    /// True when the believed head position is physically legal.
    pub fn head_in_range(&self) -> bool {
        self.believed_head >= 0 && self.believed_head <= self.geometry.max_shift() as i64
    }

    /// Issues an *error-free* shift moving the head to `target` and
    /// updates the believed position (used for functional modelling and
    /// p-ECC layout tests; fault-injected shifting goes through
    /// [`SegmentedStripe::apply_shift`]).
    ///
    /// # Errors
    ///
    /// [`StripeError::HeadOutOfRange`] if `target` exceeds the geometry.
    pub fn seek(&mut self, target: usize) -> Result<(), StripeError> {
        if target > self.geometry.max_shift() {
            return Err(StripeError::HeadOutOfRange {
                head: target as i64,
                max: self.geometry.max_shift(),
            });
        }
        let delta = target as i64 - self.believed_head;
        if delta != 0 {
            self.stripe
                .apply_shift(delta, ShiftOutcome::Pinned { offset: 0 });
            self.believed_head = target as i64;
        }
        Ok(())
    }

    /// Applies a shift of `intended` steps with a stochastic `outcome`,
    /// advancing the believed head by the intended amount and the
    /// physical stripe by the realised amount. Returns the realised
    /// movement.
    ///
    /// # Panics
    ///
    /// Panics if `intended == 0`.
    pub fn apply_shift(&mut self, intended: i64, outcome: ShiftOutcome) -> i64 {
        let moved = self.stripe.apply_shift(intended, outcome);
        self.believed_head += intended;
        moved
    }

    /// Reads data domain `d`, seeking error-free if necessary.
    ///
    /// # Errors
    ///
    /// Propagates [`StripeError`] from the seek or the port read.
    ///
    /// # Panics
    ///
    /// Panics if `d` is outside the data region.
    pub fn read_domain(&mut self, d: usize) -> Result<Bit, StripeError> {
        let target = self.geometry.head_position_for(d);
        self.seek(target)?;
        let port = self.geometry.port_of_domain(d);
        self.stripe.read_slot(self.geometry.port_slot(port))
    }

    /// Writes data domain `d`, seeking error-free if necessary.
    ///
    /// # Errors
    ///
    /// Propagates [`StripeError`] from the seek or the port write.
    ///
    /// # Panics
    ///
    /// Panics if `d` is outside the data region.
    pub fn write_domain(&mut self, d: usize, bit: Bit) -> Result<(), StripeError> {
        let target = self.geometry.head_position_for(d);
        self.seek(target)?;
        let port = self.geometry.port_of_domain(d);
        self.stripe.write_slot(self.geometry.port_slot(port), bit)
    }

    /// Reads back the whole data region (diagnostic, error-free seeks).
    ///
    /// # Errors
    ///
    /// Propagates [`StripeError`] from the underlying accesses.
    pub fn read_all(&mut self) -> Result<Vec<Bit>, StripeError> {
        (0..self.geometry.data_len())
            .map(|d| self.read_domain(d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_stripe_is_unknown_and_aligned() {
        let s = Stripe::new(8);
        assert_eq!(s.len(), 8);
        assert!(s.is_aligned());
        assert!(s.cells().iter().all(|&b| b == Bit::Unknown));
    }

    #[test]
    fn read_write_slot() {
        let mut s = Stripe::new(4);
        s.write_slot(2, Bit::One).unwrap();
        assert_eq!(s.read_slot(2).unwrap(), Bit::One);
        assert!(matches!(
            s.read_slot(4),
            Err(StripeError::SlotOutOfRange { slot: 4, len: 4 })
        ));
    }

    #[test]
    fn movement_right_drops_rightmost_and_injects_unknown() {
        let mut s = Stripe::with_cells(vec![Bit::One, Bit::Zero, Bit::One]);
        s.apply_movement(1, true);
        assert_eq!(s.cells(), &[Bit::Unknown, Bit::One, Bit::Zero]);
        assert_eq!(s.actual_offset(), 1);
    }

    #[test]
    fn movement_left_drops_leftmost() {
        let mut s = Stripe::with_cells(vec![Bit::One, Bit::Zero, Bit::One]);
        s.apply_movement(-2, true);
        assert_eq!(s.cells(), &[Bit::One, Bit::Unknown, Bit::Unknown]);
        assert_eq!(s.actual_offset(), -2);
    }

    #[test]
    fn shift_right_then_left_restores_middle() {
        let mut s = Stripe::with_cells(vec![Bit::Zero, Bit::One, Bit::Zero, Bit::One, Bit::Zero]);
        s.apply_shift(2, ShiftOutcome::Pinned { offset: 0 });
        s.apply_shift(-2, ShiftOutcome::Pinned { offset: 0 });
        // Data that never left the stripe is intact; both ends lost 2.
        assert_eq!(s.cells()[2], Bit::Zero);
        assert_eq!(s.actual_offset(), 0);
        assert_eq!(s.shifts_applied(), 2);
    }

    #[test]
    fn out_of_step_moves_further_than_intended() {
        let mut s = Stripe::new(10);
        let moved = s.apply_shift(3, ShiftOutcome::Pinned { offset: 1 });
        assert_eq!(moved, 4);
        assert!(s.is_aligned());
        // In the left direction the over-shift also goes further left.
        let moved = s.apply_shift(-3, ShiftOutcome::Pinned { offset: 1 });
        assert_eq!(moved, -4);
    }

    #[test]
    fn stop_in_middle_blocks_reads_and_writes() {
        let mut s = Stripe::with_cells(vec![Bit::One; 6]);
        s.apply_shift(
            2,
            ShiftOutcome::StopInMiddle {
                lower: 0,
                frac: 0.4,
            },
        );
        assert!(!s.is_aligned());
        assert_eq!(s.read_slot(3).unwrap(), Bit::Unknown);
        assert_eq!(s.write_slot(3, Bit::Zero), Err(StripeError::Misaligned));
        s.realign();
        assert!(s.is_aligned());
        assert!(s.read_slot(3).unwrap().is_known());
    }

    #[test]
    fn segmented_round_trip_all_domains() {
        let geom = StripeGeometry::paper_default();
        let data: Vec<Bit> = (0..64).map(|i| Bit::from(i % 3 == 1)).collect();
        let mut s = SegmentedStripe::with_data(geom, &data);
        for (d, &want) in data.iter().enumerate() {
            assert_eq!(s.read_domain(d).unwrap(), want, "domain {d}");
        }
        // And the bulk read agrees.
        assert_eq!(s.read_all().unwrap(), data);
    }

    #[test]
    fn segmented_write_then_read() {
        let geom = StripeGeometry::new(16, 2).unwrap();
        let mut s = SegmentedStripe::zeroed(geom);
        s.write_domain(0, Bit::One).unwrap();
        s.write_domain(15, Bit::One).unwrap();
        assert_eq!(s.read_domain(0).unwrap(), Bit::One);
        assert_eq!(s.read_domain(15).unwrap(), Bit::One);
        assert_eq!(s.read_domain(8).unwrap(), Bit::Zero);
    }

    #[test]
    fn seek_rejects_out_of_range() {
        let geom = StripeGeometry::paper_default();
        let mut s = SegmentedStripe::zeroed(geom);
        assert!(matches!(
            s.seek(8),
            Err(StripeError::HeadOutOfRange { head: 8, max: 7 })
        ));
    }

    #[test]
    fn undetected_error_desynchronises_believed_head() {
        let geom = StripeGeometry::paper_default();
        let data: Vec<Bit> = (0..64).map(|i| Bit::from(i == 10)).collect();
        let mut s = SegmentedStripe::with_data(geom, &data);
        // A +1 out-of-step error on a 3-step shift.
        s.apply_shift(3, ShiftOutcome::Pinned { offset: 1 });
        assert_eq!(s.believed_head(), 3);
        assert_eq!(s.stripe().actual_offset(), 4);
        // A subsequent "seek" that thinks it is at 3 reads wrong data:
        // the domain under port 1 is off by one.
        let port_slot = s.geometry().port_slot(1);
        // Believed: domain at slot - believed_head = 12; actual: 11.
        let seen = s.stripe().read_slot(port_slot).unwrap();
        assert_eq!(seen, data[port_slot - 4]);
        assert_ne!(port_slot - 4, port_slot - 3);
    }

    #[test]
    fn overhead_region_absorbs_max_shift() {
        let geom = StripeGeometry::paper_default();
        let data: Vec<Bit> = (0..64).map(|i| Bit::from(i % 2 == 0)).collect();
        let mut s = SegmentedStripe::with_data(geom, &data);
        // Walk the head across its entire range and back; every domain
        // must survive.
        s.seek(7).unwrap();
        s.seek(0).unwrap();
        assert_eq!(s.read_all().unwrap(), data);
    }

    #[test]
    #[should_panic]
    fn zero_shift_panics() {
        let mut s = Stripe::new(4);
        let _ = s.apply_shift(0, ShiftOutcome::Pinned { offset: 0 });
    }
}
