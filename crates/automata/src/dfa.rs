//! Deterministic finite automata, used as safety-property monitors.
//!
//! The analysis module (§5) checks temporal properties such as
//! *"a CONNECTION_CLOSE is never followed by a STREAM output"* by compiling
//! the property into a monitor DFA over I/O pairs and checking that no trace
//! of the learned Mealy machine drives the monitor into a rejecting state.

use crate::alphabet::{Alphabet, Symbol};
use crate::word::InputWord;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A deterministic finite automaton with explicit accepting states.
///
/// Unlike [`crate::mealy::MealyMachine`], a DFA may be partial: a missing
/// transition is interpreted as a transition to an implicit non-accepting
/// sink (useful for monitors where "anything else is fine" or
/// "anything else is a violation" depending on
/// [`DfaBuilder::missing_is_accepting`]).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dfa {
    alphabet: Alphabet,
    initial: usize,
    accepting: Vec<bool>,
    transitions: Vec<BTreeMap<usize, usize>>,
    missing_is_accepting: bool,
}

/// Errors raised while building a DFA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfaError {
    /// Referenced a state that was never added.
    UnknownState(usize),
    /// Used a symbol outside the alphabet.
    UnknownSymbol(Symbol),
    /// The DFA has no states.
    Empty,
}

impl fmt::Display for DfaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfaError::UnknownState(q) => write!(f, "unknown DFA state {q}"),
            DfaError::UnknownSymbol(s) => write!(f, "unknown DFA symbol {s}"),
            DfaError::Empty => write!(f, "DFA has no states"),
        }
    }
}

impl std::error::Error for DfaError {}

/// Builder for [`Dfa`].
#[derive(Clone, Debug)]
pub struct DfaBuilder {
    alphabet: Alphabet,
    accepting: Vec<bool>,
    transitions: Vec<BTreeMap<usize, usize>>,
    initial: usize,
    missing_is_accepting: bool,
}

impl DfaBuilder {
    /// Creates a builder over the given alphabet.  By default a missing
    /// transition leads to an implicit rejecting sink.
    pub fn new(alphabet: Alphabet) -> Self {
        DfaBuilder {
            alphabet,
            accepting: Vec::new(),
            transitions: Vec::new(),
            initial: 0,
            missing_is_accepting: false,
        }
    }

    /// Configures whether missing transitions lead to an accepting sink
    /// (`true`) or a rejecting sink (`false`, the default).
    pub fn missing_is_accepting(&mut self, value: bool) -> &mut Self {
        self.missing_is_accepting = value;
        self
    }

    /// Adds a state; `accepting` marks it as accepting.
    pub fn add_state(&mut self, accepting: bool) -> usize {
        let id = self.transitions.len();
        self.transitions.push(BTreeMap::new());
        self.accepting.push(accepting);
        id
    }

    /// Sets the initial state (defaults to 0).
    pub fn set_initial(&mut self, state: usize) -> &mut Self {
        self.initial = state;
        self
    }

    /// Adds the transition `(from, symbol) → to`.
    pub fn add_transition(
        &mut self,
        from: usize,
        symbol: impl Into<Symbol>,
        to: usize,
    ) -> Result<&mut Self, DfaError> {
        let symbol = symbol.into();
        if from >= self.transitions.len() {
            return Err(DfaError::UnknownState(from));
        }
        if to >= self.transitions.len() {
            return Err(DfaError::UnknownState(to));
        }
        let idx = self
            .alphabet
            .index_of(&symbol)
            .ok_or(DfaError::UnknownSymbol(symbol))?;
        self.transitions[from].insert(idx, to);
        Ok(self)
    }

    /// Finalizes the DFA.
    pub fn build(self) -> Result<Dfa, DfaError> {
        if self.transitions.is_empty() {
            return Err(DfaError::Empty);
        }
        if self.initial >= self.transitions.len() {
            return Err(DfaError::UnknownState(self.initial));
        }
        Ok(Dfa {
            alphabet: self.alphabet,
            initial: self.initial,
            accepting: self.accepting,
            transitions: self.transitions,
            missing_is_accepting: self.missing_is_accepting,
        })
    }
}

/// The result of stepping a DFA.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DfaState {
    /// An explicit state of the DFA.
    State(usize),
    /// The implicit sink reached through a missing transition.
    Sink,
}

impl Dfa {
    /// The alphabet of the DFA.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of explicit states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// The initial state.
    pub fn initial_state(&self) -> usize {
        self.initial
    }

    /// Whether an explicit state is accepting.
    pub fn is_accepting(&self, state: usize) -> bool {
        self.accepting.get(state).copied().unwrap_or(false)
    }

    /// Steps from `state` on `symbol`.
    pub fn step(&self, state: DfaState, symbol: &Symbol) -> DfaState {
        match state {
            DfaState::Sink => DfaState::Sink,
            DfaState::State(q) => match self.alphabet.index_of(symbol) {
                None => DfaState::Sink,
                Some(idx) => match self.transitions[q].get(&idx) {
                    Some(&to) => DfaState::State(to),
                    None => DfaState::Sink,
                },
            },
        }
    }

    /// Whether a DFA state (explicit or sink) is accepting.
    pub fn state_accepts(&self, state: DfaState) -> bool {
        match state {
            DfaState::State(q) => self.is_accepting(q),
            DfaState::Sink => self.missing_is_accepting,
        }
    }

    /// Runs the DFA on a word and reports acceptance.
    pub fn accepts(&self, word: &InputWord) -> bool {
        let mut state = DfaState::State(self.initial);
        for sym in word.iter() {
            state = self.step(state, sym);
        }
        self.state_accepts(state)
    }

    /// Runs the DFA, returning the first prefix length at which the run is
    /// non-accepting, or `None` if every prefix (including the full word) is
    /// accepting.  Safety monitors use this to locate the violating step.
    pub fn first_rejecting_prefix(&self, word: &InputWord) -> Option<usize> {
        let mut state = DfaState::State(self.initial);
        if !self.state_accepts(state) {
            return Some(0);
        }
        for (i, sym) in word.iter().enumerate() {
            state = self.step(state, sym);
            if !self.state_accepts(state) {
                return Some(i + 1);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Monitor for "never two `close` symbols in a row".
    fn no_double_close() -> Dfa {
        let alphabet = Alphabet::from_symbols(["open", "close", "data"]);
        let mut b = DfaBuilder::new(alphabet);
        let ok = b.add_state(true);
        let after_close = b.add_state(true);
        let bad = b.add_state(false);
        b.add_transition(ok, "open", ok).unwrap();
        b.add_transition(ok, "data", ok).unwrap();
        b.add_transition(ok, "close", after_close).unwrap();
        b.add_transition(after_close, "open", ok).unwrap();
        b.add_transition(after_close, "data", ok).unwrap();
        b.add_transition(after_close, "close", bad).unwrap();
        b.add_transition(bad, "open", bad).unwrap();
        b.add_transition(bad, "data", bad).unwrap();
        b.add_transition(bad, "close", bad).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn accepts_safe_words_rejects_violations() {
        let d = no_double_close();
        assert!(d.accepts(&InputWord::from_symbols(["open", "data", "close", "open"])));
        assert!(!d.accepts(&InputWord::from_symbols(["close", "close"])));
        assert_eq!(
            d.first_rejecting_prefix(&InputWord::from_symbols(["open", "close", "close", "data"])),
            Some(3)
        );
        assert_eq!(
            d.first_rejecting_prefix(&InputWord::from_symbols(["open", "close", "open"])),
            None
        );
    }

    #[test]
    fn missing_transition_goes_to_configured_sink() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let mut b = DfaBuilder::new(alphabet.clone());
        let s0 = b.add_state(true);
        b.add_transition(s0, "a", s0).unwrap();
        let reject_sink = b.build().unwrap();
        assert!(reject_sink.accepts(&InputWord::from_symbols(["a", "a"])));
        assert!(!reject_sink.accepts(&InputWord::from_symbols(["a", "b"])));

        let mut b = DfaBuilder::new(alphabet);
        b.missing_is_accepting(true);
        let s0 = b.add_state(true);
        b.add_transition(s0, "a", s0).unwrap();
        let accept_sink = b.build().unwrap();
        assert!(accept_sink.accepts(&InputWord::from_symbols(["a", "b", "b"])));
    }

    #[test]
    fn symbols_outside_alphabet_go_to_sink() {
        let d = no_double_close();
        assert!(!d.accepts(&InputWord::from_symbols(["nonsense"])));
    }

    #[test]
    fn builder_errors() {
        let alphabet = Alphabet::from_symbols(["a"]);
        let mut b = DfaBuilder::new(alphabet.clone());
        assert!(matches!(
            b.add_transition(0, "a", 0),
            Err(DfaError::UnknownState(0))
        ));
        let s0 = b.add_state(true);
        assert!(matches!(
            b.add_transition(s0, "zzz", s0),
            Err(DfaError::UnknownSymbol(_))
        ));
        assert!(matches!(
            b.add_transition(s0, "a", 4),
            Err(DfaError::UnknownState(4))
        ));
        let empty = DfaBuilder::new(alphabet);
        assert!(matches!(empty.build(), Err(DfaError::Empty)));
    }

    #[test]
    fn accessors() {
        let d = no_double_close();
        assert_eq!(d.num_states(), 3);
        assert_eq!(d.initial_state(), 0);
        assert!(d.is_accepting(0));
        assert!(!d.is_accepting(2));
        assert!(!d.is_accepting(17));
        assert_eq!(d.alphabet().len(), 3);
    }
}
