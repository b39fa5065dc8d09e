//! The QUIC adapter: the protocol binding of §6.2.
//!
//! The adapter pairs a simulated QUIC server (any implementation profile)
//! with the instrumented QUIC-Tracker-style reference client.  Abstract
//! input symbols name a packet type plus the frames it must carry; the
//! reference client fills in connection IDs, packet numbers, ACK ranges,
//! stream offsets and flow-control limits that are valid in the current
//! connection state (the "never roll your own protocol logic" idea of §3.2).
//! Responses are abstracted back into the set notation of the appendix
//! models, e.g. `{HANDSHAKE(?,?)[CRYPTO],INITIAL(?,?)[ACK,CRYPTO]}`.  For
//! synthesis, [`ConcreteSul`] replays a word with the concrete numeric fields
//! of every exchanged packet (§3.2 property 4).

use crate::net_transport::{WireRequest, WireSul};
use crate::session::{SessionSulFactory, SimTime, TimedSession, TimedSul};
use crate::sul::{ConcreteSul, Sul, SulFactory, SulStats};
use bytes::Bytes;
use prognosis_automata::alphabet::{Alphabet, Symbol};
use prognosis_automata::word::{InputWord, IoTrace, OutputWord};
use prognosis_quic_sim::client::{numeric_fields, ReferenceQuicClient};
use prognosis_quic_sim::profile::ImplementationProfile;
use prognosis_quic_sim::server::QuicServer;
use prognosis_synth::trace::{ConcreteStep, ConcreteTrace};

/// The abstract QUIC input alphabet of §6.2.2: seven symbols covering
/// connection establishment, the handshake, data transmission and flow
/// control (out of the >30,000 symbols a naïve alphabet would have).
pub fn quic_alphabet() -> Alphabet {
    Alphabet::from_symbols([
        "INITIAL(?,?)[CRYPTO]",
        "INITIAL(?,?)[ACK,HANDSHAKE_DONE]",
        "HANDSHAKE(?,?)[ACK,CRYPTO]",
        "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]",
        "SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]",
        "SHORT(?,?)[ACK,STREAM]",
        "SHORT(?,?)[ACK,HANDSHAKE_DONE]",
    ])
}

/// A reduced alphabet focused on the data-transfer path, used by the
/// extended-model synthesis experiment of Appendix B.1 (Issue 4): it keeps
/// learning fast while still exercising the `STREAM_DATA_BLOCKED` behaviour.
pub fn quic_data_alphabet() -> Alphabet {
    Alphabet::from_symbols([
        "INITIAL(?,?)[CRYPTO]",
        "HANDSHAKE(?,?)[ACK,CRYPTO]",
        "SHORT(?,?)[ACK,STREAM]",
        "SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]",
    ])
}

/// Mints independent [`QuicSul`] instances (same profile, same seed), so
/// membership-query batches can fan out across parallel workers.
#[derive(Clone, Debug)]
pub struct QuicSulFactory {
    profile: ImplementationProfile,
    seed: u64,
    buggy_retry_client: bool,
}

impl QuicSulFactory {
    /// A factory for the given implementation profile and seed.
    pub fn new(profile: ImplementationProfile, seed: u64) -> Self {
        QuicSulFactory {
            profile,
            seed,
            buggy_retry_client: false,
        }
    }

    /// Enables the Issue-3 reference-client defect on every minted SUL.
    pub fn with_buggy_retry_client(mut self) -> Self {
        self.buggy_retry_client = true;
        self
    }
}

impl SulFactory for QuicSulFactory {
    type Sul = QuicSul;

    fn create(&self) -> QuicSul {
        let sul = QuicSul::new(self.profile.clone(), self.seed);
        if self.buggy_retry_client {
            sul.with_buggy_retry_client()
        } else {
            sul
        }
    }
}

impl SessionSulFactory for QuicSulFactory {
    type Session = TimedSession<QuicSul>;

    fn create_session(&self) -> Self::Session {
        TimedSession::new(self.create())
    }
}

/// The QUIC system under learning: one implementation profile + the adapter.
pub struct QuicSul {
    server: QuicServer,
    client: ReferenceQuicClient,
    /// Rendering of the profile + seed this SUL was built from, kept for
    /// the cross-run cache key (the pair fully determines query answers;
    /// the reference-client defect flag is folded in at key time because
    /// it can be toggled after construction).
    identity: String,
    /// Whether the profile answers every query deterministically.  A
    /// probabilistic profile (mvfst's 0.82 post-close RESET ratio) draws
    /// from RNG state that advances per reset, so its answers depend on
    /// query position — such SULs must opt out of the persistent cache.
    deterministic: bool,
    stats: SulStats,
    /// Abstract names of the response packets absorbed from the wire
    /// during the in-flight networked step (see [`WireSul`]); empty
    /// outside a wire step.
    wire_responses: Vec<String>,
}

impl QuicSul {
    /// Creates the SUL for the given implementation profile.
    pub fn new(profile: ImplementationProfile, seed: u64) -> Self {
        let identity = format!("quic:{profile:?}:seed={seed}");
        let deterministic = profile.reset_probability_after_close == 0.0
            || profile.reset_probability_after_close == 1.0;
        QuicSul {
            server: QuicServer::new(profile, seed),
            deterministic,
            client: ReferenceQuicClient::new(seed ^ 0xADA9, 40_000),
            identity,
            stats: SulStats::default(),
            wire_responses: Vec::new(),
        }
    }

    /// Enables the Issue-3 reference-implementation defect (the post-Retry
    /// Initial is sent from a fresh ephemeral port).
    pub fn with_buggy_retry_client(mut self) -> Self {
        self.client.rebind_on_retry = true;
        self
    }

    /// The server (for white-box assertions in tests and experiments).
    pub fn server(&self) -> &QuicServer {
        &self.server
    }

    /// One step on the virtual clock: the abstract output plus the instant
    /// the server's response flight is ready (`now` when nothing was sent).
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
        let (request_packet, wire) = match self.client.concretize(input.as_str()) {
            Ok(r) => r,
            Err(_) => {
                if let Some(steps) = concrete {
                    steps.push(ConcreteStep::default());
                }
                return (Symbol::new("{}"), now);
            }
        };
        let (responses, ready_at) =
            self.server
                .handle_datagram_at(&wire, self.client.source_port(), now);
        let packets = responses.iter().filter_map(|d| self.client.absorb(d));
        let output = match concrete {
            None => flight_symbol(
                packets
                    .map(|p| ReferenceQuicClient::abstract_packet(&p))
                    .collect(),
            ),
            Some(steps) => {
                // Sort (name, fields) pairs together, so the output fields
                // follow the packets' order in the output symbol.
                let mut decoded: Vec<(String, Vec<i64>)> = packets
                    .map(|p| (ReferenceQuicClient::abstract_packet(&p), numeric_fields(&p)))
                    .collect();
                decoded.sort();
                let output_fields = decoded.iter().flat_map(|(_, f)| f.iter().copied());
                steps.push(ConcreteStep::new(
                    numeric_fields(&request_packet),
                    output_fields.collect(),
                ));
                flight_symbol(decoded.into_iter().map(|(name, _)| name).collect())
            }
        };
        (output, ready_at)
    }
}

/// Abstracts one response flight: the packets' names sorted, so the symbol
/// is deterministic, in set notation; an empty flight is `{}`, the adapter's
/// timeout symbol.
fn flight_symbol(mut names: Vec<String>) -> Symbol {
    names.sort();
    Symbol::new(format!("{{{}}}", names.join(",")))
}

impl Sul for QuicSul {
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
        // Probabilistic profiles violate the cache-key contract (identical
        // keys ⇒ identical answers): their answers depend on RNG state
        // advanced per reset, so they learn cold every time.
        self.deterministic.then(|| {
            format!(
                "{}:rebind_on_retry={}",
                self.identity, self.client.rebind_on_retry
            )
        })
    }
}

impl TimedSul for QuicSul {
    fn step_at(&mut self, input: &Symbol, now: SimTime) -> (Symbol, SimTime) {
        self.step_timed(input, now, None)
    }

    fn reset_at(&mut self, now: SimTime) -> SimTime {
        self.reset();
        now
    }
}

impl WireSul for QuicSul {
    fn wire_request(&mut self, input: &Symbol) -> WireRequest {
        self.stats.symbols_sent += 1;
        self.wire_responses.clear();
        match self.client.concretize(input.as_str()) {
            Err(_) => WireRequest::Immediate(Symbol::new("{}")),
            Ok((_, wire)) => WireRequest::Datagram(wire),
        }
    }

    fn wire_source_port(&self, bound: u16) -> u16 {
        if self.client.rebound() {
            // The Issue-3 defect on the netsim wire: the post-Retry
            // Initial leaves from a fresh port, distinct per rebind and
            // kept below the ephemeral range so it can never collide with
            // another session's bound endpoint.
            1_024 + self.client.source_port() % 16_384
        } else {
            bound
        }
    }

    fn handle_wire(
        &mut self,
        datagram: &Bytes,
        source_port: u16,
        now: SimTime,
    ) -> (Vec<Bytes>, SimTime) {
        self.server.handle_datagram_at(datagram, source_port, now)
    }

    fn absorb_wire(&mut self, datagram: &Bytes) {
        if let Some(packet) = self.client.absorb(datagram) {
            self.wire_responses
                .push(ReferenceQuicClient::abstract_packet(&packet));
        }
    }

    fn finish_step(&mut self) -> Symbol {
        // Mirror the in-process path.  An empty flight — server silence or
        // every datagram lost — abstracts to `{}`.
        flight_symbol(std::mem::take(&mut self.wire_responses))
    }
}

impl ConcreteSul for QuicSul {
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
    fn cache_keys_distinguish_profiles_seeds_and_client_defects() {
        let a = QuicSul::new(ImplementationProfile::google(), 3);
        let same = QuicSul::new(ImplementationProfile::google(), 3);
        assert_eq!(a.cache_key(), same.cache_key());
        let other_seed = QuicSul::new(ImplementationProfile::google(), 4);
        assert_ne!(a.cache_key(), other_seed.cache_key());
        let other_profile = QuicSul::new(ImplementationProfile::quiche(), 3);
        assert_ne!(a.cache_key(), other_profile.cache_key());
        let buggy = QuicSul::new(ImplementationProfile::google(), 3).with_buggy_retry_client();
        assert_ne!(a.cache_key(), buggy.cache_key());
    }

    #[test]
    fn probabilistic_profiles_opt_out_of_the_persistent_cache() {
        // mvfst answers post-close packets with a stateless reset only
        // ≈82% of the time (Issue 2): its answers depend on RNG position,
        // so caching them across runs would poison warm starts.
        let mvfst = QuicSul::new(ImplementationProfile::mvfst(), 3);
        assert_eq!(mvfst.cache_key(), None);
        assert!(QuicSul::new(ImplementationProfile::google(), 3)
            .cache_key()
            .is_some());
    }

    #[test]
    fn alphabets_match_the_paper() {
        assert_eq!(quic_alphabet().len(), 7);
        assert_eq!(quic_data_alphabet().len(), 4);
        assert!(quic_alphabet().contains(&Symbol::new("SHORT(?,?)[ACK,HANDSHAKE_DONE]")));
    }

    #[test]
    fn google_handshake_through_the_adapter() {
        let mut sul = QuicSul::new(ImplementationProfile::google(), 1);
        sul.reset();
        let out1 = sul.step(&Symbol::new("INITIAL(?,?)[CRYPTO]"));
        assert!(out1.as_str().contains("INITIAL(?,?)[ACK,CRYPTO]"), "{out1}");
        assert!(out1.as_str().contains("SHORT(?,?)[STREAM]"), "{out1}");
        let out2 = sul.step(&Symbol::new("HANDSHAKE(?,?)[ACK,CRYPTO]"));
        assert!(out2.as_str().contains("HANDSHAKE_DONE"), "{out2}");
        let out3 = sul.step(&Symbol::new("SHORT(?,?)[ACK,STREAM]"));
        assert!(out3.as_str().contains("STREAM"), "{out3}");
    }

    #[test]
    fn packets_before_connection_establishment_yield_empty_outputs() {
        let mut sul = QuicSul::new(ImplementationProfile::quiche(), 1);
        sul.reset();
        for symbol in [
            "HANDSHAKE(?,?)[ACK,CRYPTO]",
            "SHORT(?,?)[ACK,STREAM]",
            "SHORT(?,?)[ACK,HANDSHAKE_DONE]",
        ] {
            assert_eq!(sul.step(&Symbol::new(symbol)).as_str(), "{}");
        }
    }

    #[test]
    fn queries_are_deterministic_across_resets() {
        let mut sul = QuicSul::new(ImplementationProfile::google(), 9);
        let word = InputWord::from_symbols([
            "INITIAL(?,?)[CRYPTO]",
            "HANDSHAKE(?,?)[ACK,CRYPTO]",
            "SHORT(?,?)[ACK,STREAM]",
            "SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]",
        ]);
        let mut oracle = crate::sul::SulMembershipOracle::new(&mut sul);
        let a = oracle.query(&word);
        let b = oracle.query(&word);
        assert_eq!(a, b);
    }

    #[test]
    fn oracle_table_captures_the_stream_data_blocked_field() {
        let mut sul = QuicSul::new(ImplementationProfile::google(), 1);
        // Exhaust the 200-byte credit so the server reports itself blocked.
        let entry = sul.concrete_trace(&InputWord::from_symbols([
            "INITIAL(?,?)[CRYPTO]",
            "HANDSHAKE(?,?)[ACK,CRYPTO]",
            "SHORT(?,?)[ACK,STREAM]",
            "SHORT(?,?)[ACK,STREAM]",
            "SHORT(?,?)[ACK,STREAM]",
            "SHORT(?,?)[ACK,STREAM]",
        ]));
        assert_eq!(entry.len(), 6);
        let blocked_step = entry
            .abstract_trace
            .output
            .iter()
            .position(|o| o.as_str().contains("STREAM_DATA_BLOCKED"))
            .expect("the google profile must block within four requests");
        // The Issue-4 constant 0 is visible in the replayed concrete fields.
        assert!(entry.steps[blocked_step].output_fields.contains(&0));
    }

    #[test]
    fn violation_closes_and_stays_closed() {
        let mut sul = QuicSul::new(ImplementationProfile::quiche(), 1);
        sul.reset();
        sul.step(&Symbol::new("INITIAL(?,?)[CRYPTO]"));
        let close = sul.step(&Symbol::new("HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]"));
        assert!(close.as_str().contains("CONNECTION_CLOSE"), "{close}");
        let after = sul.step(&Symbol::new("SHORT(?,?)[ACK,STREAM]"));
        assert!(
            after.as_str().contains("CONNECTION_CLOSE") || after.as_str() == "{}",
            "{after}"
        );
    }
}
