//! Structural Verilog emission.
//!
//! The paper's tool emits a Verilog HDL netlist that is handed to a commercial logic
//! optimiser. This module provides the same output format: a single flat module with
//! one `assign` per cell output, using only operators every synthesis tool accepts.

use crate::{CellKind, NetId, Netlist};
use std::collections::HashMap;
use std::fmt::Write as _;

impl Netlist {
    /// Emits the netlist as a flat structural Verilog module.
    ///
    /// Primary inputs and outputs become module ports (named after the sanitised net
    /// names), every internal net becomes a `wire`, and every cell becomes one or two
    /// `assign` statements (full/half adders expand into their sum/carry equations).
    ///
    /// # Example
    /// ```
    /// use dpsyn_netlist::{CellKind, Netlist};
    /// let mut netlist = Netlist::new("tiny");
    /// let a = netlist.add_input("a");
    /// let b = netlist.add_input("b");
    /// let y = netlist.add_gate(CellKind::Xor2, &[a, b]).unwrap()[0];
    /// netlist.mark_output(y);
    /// let verilog = netlist.to_verilog();
    /// assert!(verilog.contains("module tiny"));
    /// assert!(verilog.contains("assign"));
    /// ```
    pub fn to_verilog(&self) -> String {
        let names = self.verilog_net_names();
        let name = |net: &NetId| names[net.index()].as_str();
        let ports: Vec<&str> = self
            .inputs()
            .iter()
            .chain(self.outputs())
            .map(name)
            .collect();
        let mut text = String::new();
        let _ = writeln!(text, "// generated by dpsyn-netlist");
        let _ = writeln!(
            text,
            "module {} ({});",
            sanitize(self.name()),
            ports.join(", ")
        );
        for net in self.inputs() {
            let _ = writeln!(text, "  input {};", name(net));
        }
        let mut is_output = vec![false; self.net_count()];
        for net in self.outputs() {
            is_output[net.index()] = true;
            let _ = writeln!(text, "  output {};", name(net));
        }
        for (id, net) in self.nets() {
            if !net.is_input() && !is_output[id.index()] {
                let _ = writeln!(text, "  wire {};", name(&id));
            }
        }
        for (_, cell) in self.cells() {
            let mut input_names = [""; 3];
            for (slot, net) in input_names.iter_mut().zip(cell.inputs()) {
                *slot = name(net);
            }
            match cell.kind() {
                CellKind::Fa => {
                    let (a, b, c) = (input_names[0], input_names[1], input_names[2]);
                    let sum = &name(&cell.outputs()[0]);
                    let carry = name(&cell.outputs()[1]);
                    let _ = writeln!(text, "  assign {sum} = {a} ^ {b} ^ {c};");
                    let _ = writeln!(
                        text,
                        "  assign {carry} = ({a} & {b}) | ({a} & {c}) | ({b} & {c});"
                    );
                }
                CellKind::Ha => {
                    let (a, b) = (input_names[0], input_names[1]);
                    let sum = &name(&cell.outputs()[0]);
                    let carry = name(&cell.outputs()[1]);
                    let _ = writeln!(text, "  assign {sum} = {a} ^ {b};");
                    let _ = writeln!(text, "  assign {carry} = {a} & {b};");
                }
                CellKind::And2 => {
                    let _ = writeln!(
                        text,
                        "  assign {} = {} & {};",
                        name(&cell.outputs()[0]),
                        input_names[0],
                        input_names[1]
                    );
                }
                CellKind::And3 => {
                    let _ = writeln!(
                        text,
                        "  assign {} = {} & {} & {};",
                        name(&cell.outputs()[0]),
                        input_names[0],
                        input_names[1],
                        input_names[2]
                    );
                }
                CellKind::Or2 => {
                    let _ = writeln!(
                        text,
                        "  assign {} = {} | {};",
                        name(&cell.outputs()[0]),
                        input_names[0],
                        input_names[1]
                    );
                }
                CellKind::Xor2 => {
                    let _ = writeln!(
                        text,
                        "  assign {} = {} ^ {};",
                        name(&cell.outputs()[0]),
                        input_names[0],
                        input_names[1]
                    );
                }
                CellKind::Xor3 => {
                    let _ = writeln!(
                        text,
                        "  assign {} = {} ^ {} ^ {};",
                        name(&cell.outputs()[0]),
                        input_names[0],
                        input_names[1],
                        input_names[2]
                    );
                }
                CellKind::Not => {
                    let _ = writeln!(
                        text,
                        "  assign {} = ~{};",
                        name(&cell.outputs()[0]),
                        input_names[0]
                    );
                }
                CellKind::Buf => {
                    let _ = writeln!(
                        text,
                        "  assign {} = {};",
                        name(&cell.outputs()[0]),
                        input_names[0]
                    );
                }
                CellKind::Mux2 => {
                    let _ = writeln!(
                        text,
                        "  assign {} = {} ? {} : {};",
                        name(&cell.outputs()[0]),
                        input_names[2],
                        input_names[1],
                        input_names[0]
                    );
                }
                CellKind::Const0 => {
                    let _ = writeln!(text, "  assign {} = 1'b0;", name(&cell.outputs()[0]));
                }
                CellKind::Const1 => {
                    let _ = writeln!(text, "  assign {} = 1'b1;", name(&cell.outputs()[0]));
                }
            }
        }
        let _ = writeln!(text, "endmodule");
        text
    }

    /// Builds a unique Verilog-safe name for every net, indexed by net: the first
    /// net with a given sanitised name keeps it, the `k`-th repeat gets `__k`.
    fn verilog_net_names(&self) -> Vec<String> {
        let mut used: HashMap<String, usize> = HashMap::with_capacity(self.net_count());
        let mut names = Vec::with_capacity(self.net_count());
        for (_, net) in self.nets() {
            let base = sanitize(&net.name());
            let name = match used.get_mut(&base) {
                Some(count) => {
                    let name = format!("{base}__{count}");
                    *count += 1;
                    name
                }
                None => {
                    used.insert(base.clone(), 1);
                    base
                }
            };
            names.push(name);
        }
        names
    }
}

/// Replaces characters that are not legal in a simple Verilog identifier.
fn sanitize(name: &str) -> String {
    let mut cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() || cleaned.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        cleaned.insert(0, 'n');
    }
    cleaned
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_produces_legal_identifiers() {
        assert_eq!(sanitize("x[3]"), "x_3_");
        assert_eq!(sanitize("3bad"), "n3bad");
        assert_eq!(sanitize(""), "n");
        assert_eq!(sanitize("fine_name9"), "fine_name9");
    }

    #[test]
    fn verilog_contains_all_cells_and_ports() {
        let mut netlist = Netlist::new("adder bit");
        let a = netlist.add_input("a[0]");
        let b = netlist.add_input("b[0]");
        let cin = netlist.add_input("cin");
        let fa = netlist.add_gate(CellKind::Fa, &[a, b, cin]).unwrap();
        let inverted = netlist.add_gate(CellKind::Not, &[fa[1]]).unwrap()[0];
        netlist.mark_output(fa[0]);
        netlist.mark_output(inverted);
        let verilog = netlist.to_verilog();
        assert!(verilog.contains("module adder_bit"));
        assert!(verilog.contains("input a_0_"));
        assert!(verilog.contains("output"));
        assert!(verilog.contains('^'));
        assert!(verilog.contains('~'));
        assert!(verilog.contains("endmodule"));
    }

    #[test]
    fn duplicate_net_names_are_made_unique() {
        let mut netlist = Netlist::new("dups");
        let a = netlist.add_input("sig");
        let b = netlist.add_input("sig");
        let y = netlist.add_gate(CellKind::Or2, &[a, b]).unwrap()[0];
        netlist.mark_output(y);
        let verilog = netlist.to_verilog();
        assert!(verilog.contains("sig"));
        assert!(verilog.contains("sig__1"));
    }

    #[test]
    fn all_cell_kinds_emit() {
        let mut netlist = Netlist::new("everything");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let c = netlist.add_input("c");
        let zero = netlist.constant(false);
        let one = netlist.constant(true);
        let mut outputs = Vec::new();
        outputs.extend(netlist.add_gate(CellKind::Fa, &[a, b, c]).unwrap());
        outputs.extend(netlist.add_gate(CellKind::Ha, &[a, b]).unwrap());
        outputs.extend(netlist.add_gate(CellKind::And2, &[a, b]).unwrap());
        outputs.extend(netlist.add_gate(CellKind::And3, &[a, b, c]).unwrap());
        outputs.extend(netlist.add_gate(CellKind::Or2, &[a, b]).unwrap());
        outputs.extend(netlist.add_gate(CellKind::Xor2, &[a, b]).unwrap());
        outputs.extend(netlist.add_gate(CellKind::Xor3, &[a, b, c]).unwrap());
        outputs.extend(netlist.add_gate(CellKind::Not, &[a]).unwrap());
        outputs.extend(netlist.add_gate(CellKind::Buf, &[b]).unwrap());
        outputs.extend(netlist.add_gate(CellKind::Mux2, &[a, b, c]).unwrap());
        outputs.push(zero);
        outputs.push(one);
        for net in outputs {
            netlist.mark_output(net);
        }
        let verilog = netlist.to_verilog();
        assert!(verilog.contains("1'b0"));
        assert!(verilog.contains("1'b1"));
        assert!(verilog.contains('?'));
        assert!(verilog.matches("assign").count() >= 14);
    }
}
