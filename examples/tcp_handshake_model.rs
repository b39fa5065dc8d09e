//! Learn the TCP three-way handshake model and synthesize its register
//! behaviour (the Fig. 3 workflow of the paper).
//!
//! ```sh
//! cargo run --example tcp_handshake_model
//! ```

use prognosis::analysis::report::Report;
use prognosis::automata::alphabet::Alphabet;
use prognosis::core::pipeline::{learn_model, LearnConfig};
use prognosis::core::sul::replay_transition_cover;
use prognosis::core::tcp_adapter::{tcp_alphabet, TcpSul};
use prognosis::synth::synthesis::Synthesizer;
use prognosis::synth::term::TermDomain;

fn main() {
    // Learn the full seven-symbol model first (Appendix A.1).
    let mut sul = TcpSul::with_defaults();
    let learned = learn_model(&mut sul, &tcp_alphabet(), LearnConfig::default());
    let mut report = Report::new("TCP model (abstract, Fig. 3b / Appendix A.1)");
    report
        .row("states", learned.model.num_states())
        .row("transitions", learned.model.num_transitions())
        .row("membership queries", learned.stats.membership_queries);
    println!("{report}");

    // Now the richer, synthesized view (Fig. 3c): learn over the handshake
    // alphabet, replay the model's transition cover through a fresh SUL to
    // collect concrete traces, then recover the sequence-number registers
    // with the constraint solver.
    let alphabet = Alphabet::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)", "ACK+PSH(?,?,1)"]);
    let learned = learn_model(
        &mut TcpSul::with_defaults(),
        &alphabet,
        LearnConfig::default(),
    );
    let traces = replay_transition_cover(&mut TcpSul::with_defaults(), &learned.model);
    let synthesizer = Synthesizer::new(
        TermDomain::new(2, 2).with_constant(10_000),
        vec!["srv".to_string(), "peer".to_string()],
        vec!["seq".to_string(), "ack".to_string()],
        vec![10_000, 0],
    );
    match synthesizer.synthesize(&learned.model, &traces, &[]) {
        Ok(outcome) => {
            println!("=== Synthesized register machine (Fig. 3c) ===");
            println!("{}", outcome.machine.render());
            println!(
                "\n(solver explored {} nodes over {} replayed traces)",
                outcome.report.solver_nodes, outcome.report.traces_used
            );
        }
        Err(e) => println!("synthesis failed: {e}"),
    }
}
