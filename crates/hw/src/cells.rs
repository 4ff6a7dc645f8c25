use std::fmt;

/// A standard-cell class used by the convolution-engine netlists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Cell {
    /// Inverter.
    Inv,
    /// 2-input NAND.
    Nand2,
    /// 2-input AND (the stochastic multiplier).
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2:1 multiplexer.
    Mux2,
    /// D flip-flop (one register/counter bit).
    Dff,
    /// Toggle flip-flop (DFF + XOR feedback, merged cell).
    Tff,
    /// 1-bit full adder.
    FullAdder,
    /// One bit-slice of a magnitude comparator.
    ComparatorBit,
    /// An event-driven register bit: one stage of an asynchronous ripple
    /// counter, clocked by its neighbour's output rather than the global
    /// clock (the paper's §II-A async counters). Pays toggle energy only.
    RippleBit,
}

impl Cell {
    /// All cell classes.
    pub const ALL: [Cell; 11] = [
        Cell::Inv,
        Cell::Nand2,
        Cell::And2,
        Cell::Or2,
        Cell::Xor2,
        Cell::Mux2,
        Cell::Dff,
        Cell::Tff,
        Cell::FullAdder,
        Cell::ComparatorBit,
        Cell::RippleBit,
    ];
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cell::Inv => "INV",
            Cell::Nand2 => "NAND2",
            Cell::And2 => "AND2",
            Cell::Or2 => "OR2",
            Cell::Xor2 => "XOR2",
            Cell::Mux2 => "MUX2",
            Cell::Dff => "DFF",
            Cell::Tff => "TFF",
            Cell::FullAdder => "FA",
            Cell::ComparatorBit => "CMP",
            Cell::RippleBit => "RPL",
        };
        f.write_str(s)
    }
}

/// Per-cell physical characteristics of a standard-cell library.
///
/// The built-in [`tsmc65_typical`](Self::tsmc65_typical) numbers are
/// typical-case approximations for a commercial 65 nm bulk process
/// (areas from cell heights of ~1.8 µm and 4–20 tracks; energies from
/// `C·V²` with a 1.2 V supply and a global wiring/clock overhead folded
/// into [`wire_factor`](Self::wire_factor)). They are *not* the NDA'd TSMC
/// values — see the README, *Substitutions*, item 1, for why shape, not absolute
/// calibration, is what the reproduction needs.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    name: &'static str,
    /// Supply voltage in volts.
    vdd: f64,
    /// Multiplier on switching energy accounting for wire + clock-tree
    /// capacitance that synthesis adds on top of raw gate capacitance.
    wire_factor: f64,
}

impl CellLibrary {
    /// The default typical-case 65 nm library.
    pub fn tsmc65_typical() -> Self {
        Self { name: "65nm-typical", vdd: 1.2, wire_factor: 2.5 }
    }

    /// Library display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Supply voltage (V).
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// The wiring/clock capacitance multiplier applied to dynamic energy.
    pub fn wire_factor(&self) -> f64 {
        self.wire_factor
    }

    /// Cell area in µm².
    pub fn area_um2(&self, cell: Cell) -> f64 {
        match cell {
            Cell::Inv => 1.0,
            Cell::Nand2 => 1.4,
            Cell::And2 => 1.8,
            Cell::Or2 => 1.8,
            Cell::Xor2 => 3.1,
            Cell::Mux2 => 3.1,
            Cell::Dff => 6.2,
            Cell::Tff => 8.0,
            Cell::FullAdder => 9.4,
            Cell::ComparatorBit => 4.5,
            Cell::RippleBit => 6.2,
        }
    }

    /// Energy per *output toggle* in femtojoules, including the wire
    /// factor. Flip-flops additionally burn [`clock_energy_fj`] each cycle.
    ///
    /// [`clock_energy_fj`]: Self::clock_energy_fj
    pub fn toggle_energy_fj(&self, cell: Cell) -> f64 {
        let raw = match cell {
            Cell::Inv => 0.8,
            Cell::Nand2 => 1.2,
            Cell::And2 => 1.5,
            Cell::Or2 => 1.5,
            Cell::Xor2 => 2.8,
            Cell::Mux2 => 2.5,
            Cell::Dff => 4.5,
            Cell::Tff => 5.5,
            Cell::FullAdder => 6.5,
            Cell::ComparatorBit => 3.0,
            Cell::RippleBit => 4.5,
        };
        raw * self.wire_factor
    }

    /// Per-cycle clock-pin energy of sequential cells (fJ), wire factor
    /// included; zero for combinational cells — and zero for the
    /// event-driven [`Cell::Tff`] and [`Cell::RippleBit`], which are
    /// clocked by their data events (Fig. 2's TFF is toggled by the XOR
    /// output; ripple-counter bits by their neighbours), the very property
    /// the paper exploits to keep the stochastic datapath cheap.
    pub fn clock_energy_fj(&self, cell: Cell) -> f64 {
        match cell {
            Cell::Dff => 1.2 * self.wire_factor,
            _ => 0.0,
        }
    }

    /// Leakage power in nanowatts.
    pub fn leakage_nw(&self, cell: Cell) -> f64 {
        match cell {
            Cell::Inv => 1.5,
            Cell::Nand2 => 2.0,
            Cell::And2 => 2.5,
            Cell::Or2 => 2.5,
            Cell::Xor2 => 4.0,
            Cell::Mux2 => 4.0,
            Cell::Dff => 8.0,
            Cell::Tff => 10.0,
            Cell::FullAdder => 11.0,
            Cell::ComparatorBit => 5.0,
            Cell::RippleBit => 8.0,
        }
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        Self::tsmc65_typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_has_positive_characteristics() {
        let lib = CellLibrary::tsmc65_typical();
        for cell in Cell::ALL {
            assert!(lib.area_um2(cell) > 0.0, "{cell}");
            assert!(lib.toggle_energy_fj(cell) > 0.0, "{cell}");
            assert!(lib.leakage_nw(cell) > 0.0, "{cell}");
        }
    }

    #[test]
    fn only_synchronous_registers_burn_clock_energy() {
        let lib = CellLibrary::default();
        assert!(lib.clock_energy_fj(Cell::Dff) > 0.0);
        // Event-driven cells: no per-cycle clock cost.
        assert_eq!(lib.clock_energy_fj(Cell::Tff), 0.0);
        assert_eq!(lib.clock_energy_fj(Cell::RippleBit), 0.0);
        assert_eq!(lib.clock_energy_fj(Cell::And2), 0.0);
    }

    #[test]
    fn relative_sizes_are_sensible() {
        let lib = CellLibrary::default();
        // An inverter is the smallest cell; a full adder among the largest.
        assert!(lib.area_um2(Cell::Inv) < lib.area_um2(Cell::Nand2));
        assert!(lib.area_um2(Cell::FullAdder) > lib.area_um2(Cell::Xor2));
        // Energy ordering tracks complexity.
        assert!(lib.toggle_energy_fj(Cell::FullAdder) > lib.toggle_energy_fj(Cell::Inv));
    }

    #[test]
    fn display_names() {
        assert_eq!(Cell::Tff.to_string(), "TFF");
        assert_eq!(Cell::FullAdder.to_string(), "FA");
    }
}
