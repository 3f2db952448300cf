//! Operating-point results: node voltages, branch currents, per-device
//! small-signal parameters, and power bookkeeping.

use crate::mna::MnaMap;
use crate::mosfet::{eval_mosfet, MosEval};
use crate::netlist::{Circuit, Element, NodeId};
use std::collections::HashMap;

/// Solved DC operating point of a circuit.
///
/// Produced by [`crate::dc::dc_operating_point`]; consumed by the AC
/// analysis, the DPI/SFG linearization and the synthesis evaluator.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    voltages: Vec<f64>,
    branch_currents: HashMap<String, f64>,
    mos_evals: HashMap<String, MosEval>,
}

impl OperatingPoint {
    /// Builds the operating point from a converged MNA solution vector.
    pub(crate) fn from_solution(circuit: &Circuit, map: &MnaMap, x: &[f64]) -> Self {
        let mut voltages = vec![0.0; circuit.node_count()];
        voltages[1..].copy_from_slice(&x[..circuit.node_count() - 1]);
        let mut branch_currents = HashMap::new();
        let mut mos_evals = HashMap::new();
        for (i, e) in circuit.elements().iter().enumerate() {
            match e {
                Element::VSource { name, .. } | Element::Vcvs { name, .. } => {
                    branch_currents.insert(name.clone(), x[map.branch_row(i)]);
                }
                Element::Mosfet {
                    name,
                    d,
                    g,
                    s,
                    b,
                    model,
                    w,
                    l,
                } => {
                    let vd = voltages[d.index()];
                    let vg = voltages[g.index()];
                    let vs = voltages[s.index()];
                    let vb = voltages[b.index()];
                    mos_evals.insert(
                        name.clone(),
                        eval_mosfet(model, *w, *l, vg - vs, vd - vs, vb - vs),
                    );
                }
                _ => {}
            }
        }
        OperatingPoint {
            voltages,
            branch_currents,
            mos_evals,
        }
    }

    /// Voltage of a node (ground is 0).
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.voltages[node.index()]
    }

    /// All node voltages indexed by [`NodeId::index`].
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// Branch current of a named voltage source / VCVS.
    ///
    /// Positive current flows from the positive terminal *through the
    /// source* to the negative terminal (SPICE convention), so a supply
    /// delivering power reports a negative branch current.
    pub fn branch_current(&self, name: &str) -> Option<f64> {
        self.branch_currents.get(name).copied()
    }

    /// Small-signal evaluation of a named MOSFET.
    pub fn mos_eval(&self, name: &str) -> Option<&MosEval> {
        self.mos_evals.get(name)
    }

    /// Iterator over all MOSFET evaluations.
    pub fn mos_evals(&self) -> impl Iterator<Item = (&str, &MosEval)> {
        self.mos_evals.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Power delivered *by* a named voltage source (positive when the source
    /// feeds the circuit), W.
    pub fn source_power(&self, circuit: &Circuit, name: &str) -> Option<f64> {
        let (_, e) = circuit.find_element(name)?;
        match e {
            Element::VSource { p, n, wave, .. } => {
                let v = wave.dc_value();
                let i = self.branch_current(name)?;
                let _ = (p, n);
                Some(-v * i)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};

    #[test]
    fn source_power_of_divider() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, 3.0);
        c.add_resistor("R1", a, Circuit::GROUND, 3e3);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        // 3 V, 1 mA → 3 mW delivered.
        assert!((op.source_power(&c, "V1").unwrap() - 3e-3).abs() < 1e-9);
    }

    #[test]
    fn voltages_vector_includes_ground() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, 1.5);
        c.add_resistor("R1", a, Circuit::GROUND, 1e3);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        assert_eq!(op.voltages().len(), 2);
        assert_eq!(op.voltages()[0], 0.0);
        assert!((op.voltage(a) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn missing_lookups_return_none() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, 1.0);
        c.add_resistor("R1", a, Circuit::GROUND, 1e3);
        let op = dc_operating_point(&c, &DcOptions::default()).unwrap();
        assert!(op.branch_current("nope").is_none());
        assert!(op.mos_eval("nope").is_none());
        assert!(op.source_power(&c, "R1").is_none());
    }
}
