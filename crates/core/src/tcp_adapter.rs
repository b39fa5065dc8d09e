//! The TCP adapter: the protocol binding of §6.1.
//!
//! The adapter pairs the TCP implementation under learning
//! ([`prognosis_tcp::TcpServer`]) with the instrumented reference client
//! ([`prognosis_tcp::ReferenceTcpClient`]), enforcing the §3.2 properties:
//! packets are only sent when the learner requests them (1), the concrete
//! segment always matches the requested abstract symbol (2), both sides are
//! reset between queries (3), any exchange can be replayed with its concrete
//! sequence/acknowledgement numbers through [`ConcreteSul`] (4), and
//! responses are abstracted back to the learner's alphabet (5).

use crate::net_transport::{WireRequest, WireSul};
use crate::session::{SessionSulFactory, SimTime, TimedSession, TimedSul};
use crate::sul::{ConcreteSul, Sul, SulFactory, SulStats};
use bytes::Bytes;
use prognosis_automata::alphabet::{Alphabet, Symbol};
use prognosis_automata::word::{InputWord, IoTrace, OutputWord};
use prognosis_synth::trace::{ConcreteStep, ConcreteTrace};
use prognosis_tcp::client::ReferenceTcpClient;
use prognosis_tcp::segment::TcpSegment;
use prognosis_tcp::server::{TcpServer, TcpServerConfig};

/// The abstract TCP alphabet used in §6.1 (the same alphabet as prior work):
/// packet flags with the payload length, sequence/acknowledgement numbers
/// left unspecified.
pub fn tcp_alphabet() -> Alphabet {
    Alphabet::from_symbols([
        "SYN(?,?,0)",
        "SYN+ACK(?,?,0)",
        "ACK(?,?,0)",
        "ACK+PSH(?,?,1)",
        "FIN+ACK(?,?,0)",
        "RST(?,?,0)",
        "ACK+RST(?,?,0)",
    ])
}

/// Mints independent [`TcpSul`] instances from one server configuration,
/// so membership-query batches can fan out across parallel workers.
#[derive(Clone, Debug, Default)]
pub struct TcpSulFactory {
    config: TcpServerConfig,
}

impl TcpSulFactory {
    /// A factory using the given server configuration.
    pub fn new(config: TcpServerConfig) -> Self {
        TcpSulFactory { config }
    }
}

impl SulFactory for TcpSulFactory {
    type Sul = TcpSul;

    fn create(&self) -> TcpSul {
        TcpSul::new(self.config.clone())
    }
}

impl SessionSulFactory for TcpSulFactory {
    type Session = TimedSession<TcpSul>;

    fn create_session(&self) -> Self::Session {
        TimedSession::new(self.create())
    }
}

/// The TCP system under learning: implementation + adapter.
pub struct TcpSul {
    server: TcpServer,
    client: ReferenceTcpClient,
    /// The server configuration, kept so the SUL can report a stable
    /// cross-run cache key (the config fully determines query answers:
    /// the reference client's ports and ISN are fixed constants).
    config: TcpServerConfig,
    stats: SulStats,
    /// Abstract names of the responses absorbed from the wire during the
    /// in-flight networked step (see [`WireSul`]); empty outside a wire
    /// step.
    wire_responses: Vec<String>,
}

impl TcpSul {
    /// Creates the SUL with the given server configuration.
    pub fn new(config: TcpServerConfig) -> Self {
        let server_port = config.port;
        TcpSul {
            server: TcpServer::new(config.clone()),
            client: ReferenceTcpClient::new(40_965, server_port, 48_108),
            config,
            stats: SulStats::default(),
            wire_responses: Vec::new(),
        }
    }

    /// Creates the SUL with the default (fixed-ISN) configuration used by
    /// the learning experiments.
    pub fn with_defaults() -> Self {
        TcpSul::new(TcpServerConfig::default())
    }

    /// The current state of the server (for white-box assertions in tests).
    pub fn server(&self) -> &TcpServer {
        &self.server
    }

    fn fields(segment: &TcpSegment) -> Vec<i64> {
        vec![i64::from(segment.seq), i64::from(segment.ack)]
    }

    /// One step on the virtual clock: the abstract output plus the instant
    /// the server's response is ready (`now` when no packet was exchanged).
    /// [`Sul::step`], [`TimedSul::step_at`] and
    /// [`ConcreteSul::concrete_trace`] all funnel through here, so they
    /// answer identically by construction; only the last passes `concrete`,
    /// which receives the step's numeric fields.
    fn step_timed(
        &mut self,
        input: &Symbol,
        now: SimTime,
        concrete: Option<&mut Vec<ConcreteStep>>,
    ) -> (Symbol, SimTime) {
        self.stats.symbols_sent += 1;
        let segment = match self.client.concretize(input.as_str()) {
            Ok(s) => s,
            Err(_) => {
                // Unknown symbols are answered with silence so a bad alphabet
                // cannot wedge the learner.
                if let Some(steps) = concrete {
                    steps.push(ConcreteStep::default());
                }
                return (Symbol::new("NIL"), now);
            }
        };
        let (response, ready_at) = self.server.handle_segment_at(&segment, now);
        if let Some(seg) = &response {
            self.client.absorb(seg);
        }
        if let Some(steps) = concrete {
            let output_fields = response.as_ref().map_or_else(Vec::new, Self::fields);
            steps.push(ConcreteStep::new(Self::fields(&segment), output_fields));
        }
        let output = response.map_or_else(|| "NIL".to_string(), |seg| seg.abstract_name());
        (Symbol::new(output), ready_at)
    }
}

impl Sul for TcpSul {
    fn step(&mut self, input: &Symbol) -> Symbol {
        self.step_timed(input, SimTime::ZERO, None).0
    }

    fn reset(&mut self) {
        self.stats.resets += 1;
        self.wire_responses.clear();
        self.server.reset();
        self.client.reset();
    }

    fn stats(&self) -> SulStats {
        self.stats
    }

    fn cache_key(&self) -> Option<String> {
        Some(format!("tcp:{:?}", self.config))
    }
}

impl WireSul for TcpSul {
    fn wire_request(&mut self, input: &Symbol) -> WireRequest {
        self.stats.symbols_sent += 1;
        self.wire_responses.clear();
        match self.client.concretize(input.as_str()) {
            // Unknown symbols exchange no packet: answered with silence
            // immediately, exactly as the in-process path does.
            Err(_) => WireRequest::Immediate(Symbol::new("NIL")),
            Ok(segment) => WireRequest::Datagram(segment.encode()),
        }
    }

    fn handle_wire(
        &mut self,
        datagram: &Bytes,
        _source_port: u16,
        now: SimTime,
    ) -> (Vec<Bytes>, SimTime) {
        match TcpSegment::decode(datagram.clone()) {
            Ok(segment) => {
                let (response, ready_at) = self.server.handle_segment_at(&segment, now);
                (
                    response.into_iter().map(|seg| seg.encode()).collect(),
                    ready_at,
                )
            }
            // A mangled segment is dropped by the server's input stage.
            Err(_) => (Vec::new(), now),
        }
    }

    fn absorb_wire(&mut self, datagram: &Bytes) {
        if let Ok(segment) = TcpSegment::decode(datagram.clone()) {
            self.client.absorb(&segment);
            self.wire_responses.push(segment.abstract_name());
        }
    }

    fn finish_step(&mut self) -> Symbol {
        // TCP answers a request with at most one segment; a duplicated
        // delivery repeats the identical segment, so the first absorbed
        // response is the step's output.  Nothing absorbed means silence
        // on the wire — the adapter's timeout symbol.
        let output = Symbol::new(self.wire_responses.first().map_or("NIL", String::as_str));
        self.wire_responses.clear();
        output
    }
}

impl TimedSul for TcpSul {
    fn step_at(&mut self, input: &Symbol, now: SimTime) -> (Symbol, SimTime) {
        self.step_timed(input, now, None)
    }

    fn reset_at(&mut self, now: SimTime) -> SimTime {
        self.reset();
        now
    }
}

impl ConcreteSul for TcpSul {
    fn concrete_trace(&mut self, word: &InputWord) -> ConcreteTrace {
        self.reset();
        let mut steps = Vec::with_capacity(word.len());
        let output: OutputWord = word
            .iter()
            .map(|input| self.step_timed(input, SimTime::ZERO, Some(&mut steps)).0)
            .collect();
        ConcreteTrace::new(IoTrace::new(word.clone(), output), steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosis_learner::oracle::MembershipOracle;

    #[test]
    fn cache_keys_distinguish_server_configurations() {
        let a = TcpSul::with_defaults();
        let b = TcpSul::with_defaults();
        assert_eq!(a.cache_key(), b.cache_key(), "same config, same key");
        let other = TcpSul::new(TcpServerConfig {
            window: 1_024,
            ..TcpServerConfig::default()
        });
        assert_ne!(a.cache_key(), other.cache_key());
    }

    #[test]
    fn alphabet_has_the_seven_symbols_of_the_paper() {
        let a = tcp_alphabet();
        assert_eq!(a.len(), 7);
        assert!(a.contains(&Symbol::new("ACK+PSH(?,?,1)")));
    }

    #[test]
    fn handshake_query_produces_the_expected_abstract_trace() {
        let mut sul = TcpSul::with_defaults();
        sul.reset();
        let out1 = sul.step(&Symbol::new("SYN(?,?,0)"));
        let out2 = sul.step(&Symbol::new("ACK(?,?,0)"));
        let out3 = sul.step(&Symbol::new("ACK+PSH(?,?,1)"));
        assert_eq!(out1.as_str(), "ACK+SYN(?,?,0)");
        assert_eq!(out2.as_str(), "NIL");
        assert_eq!(out3.as_str(), "ACK(?,?,0)");
        assert_eq!(sul.stats().symbols_sent, 3);
    }

    #[test]
    fn queries_are_deterministic_across_resets() {
        let mut sul = TcpSul::with_defaults();
        let mut oracle = crate::sul::SulMembershipOracle::new(&mut sul);
        let word =
            InputWord::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)", "FIN+ACK(?,?,0)", "ACK(?,?,0)"]);
        let a = oracle.query(&word);
        let b = oracle.query(&word);
        assert_eq!(a, b);
    }

    #[test]
    fn oracle_table_records_concrete_sequence_numbers() {
        let mut sul = TcpSul::with_defaults();
        let entry = sul.concrete_trace(&InputWord::from_symbols(["SYN(?,?,0)", "ACK(?,?,0)"]));
        assert_eq!(entry.len(), 2);
        // The SYN carries the client ISN; the SYN+ACK response acknowledges ISN+1.
        assert_eq!(entry.steps[0].input_fields, vec![48_108, 0]);
        assert_eq!(entry.steps[0].output_fields, vec![10_000, 48_109]);
    }

    #[test]
    fn unknown_abstract_symbols_are_answered_with_nil() {
        let mut sul = TcpSul::with_defaults();
        sul.reset();
        assert_eq!(sul.step(&Symbol::new("NOT_A_SYMBOL")).as_str(), "NIL");
    }

    #[test]
    fn stray_segments_in_listen_get_rst() {
        let mut sul = TcpSul::with_defaults();
        sul.reset();
        let out = sul.step(&Symbol::new("ACK(?,?,0)"));
        assert_eq!(out.as_str(), "RST(?,?,0)");
        let out = sul.step(&Symbol::new("FIN+ACK(?,?,0)"));
        assert!(out.as_str().contains("RST"));
    }
}
