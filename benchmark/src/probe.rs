//! The seam between the load drivers and the instrumentation.
//!
//! Every driver is generic over a [`Probe`]. The timed binary instantiates
//! them with [`NoProbe`], whose methods are empty and inline away, so the
//! timed code carries no tracing at all; the traced binary instantiates the
//! same drivers with [`crate::trace::Tracer`], which wraps every transport
//! in a [`crate::trace::TimedTransport`] and records a span around every
//! call into a layer.

use rbvc_transport::Transport;

/// The calls into the program a span is recorded around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `ConsensusService::poll`.
    Poll,
    /// `ConsensusService::launch`.
    Launch,
    /// `ClientPort::pump`.
    Pump,
    /// `ClientHandle::submit_nowait`.
    Submit,
    /// `Wal::open`.
    WalOpen,
    /// `ConsensusService::recover`.
    Recover,
    /// `Transport::flush`, as called by the service.
    Flush,
    /// `Transport::recv_timeout_stamped`, as called by the service.
    Recv,
    /// The driver thread waited because a sweep moved nothing.
    Idle,
}

impl Call {
    /// Every call, in ledger order.
    pub const ALL: [Call; 9] = [
        Call::Poll,
        Call::Launch,
        Call::Pump,
        Call::Submit,
        Call::WalOpen,
        Call::Recover,
        Call::Flush,
        Call::Recv,
        Call::Idle,
    ];

    /// Span name in `trace.jsonl`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Call::Poll => "poll",
            Call::Launch => "launch",
            Call::Pump => "pump",
            Call::Submit => "submit_nowait",
            Call::WalOpen => "wal_open",
            Call::Recover => "recover",
            Call::Flush => "transport_flush",
            Call::Recv => "transport_recv",
            Call::Idle => "driver_idle",
        }
    }

    /// Position in [`Call::ALL`] (which lists the variants in declaration
    /// order).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Instrumentation hooks of a load driver.
pub trait Probe: Clone + Send + Sync + 'static {
    /// The transport the services run over: the endpoint itself, or a
    /// timing wrapper around it.
    type Wrapped<T: Transport>: Transport;

    /// Wrap one endpoint.
    fn wrap<T: Transport>(&self, inner: T) -> Self::Wrapped<T>;

    /// Run `f` as one span of `call` on behalf of `instance` (0 when the
    /// call serves no single instance).
    fn span<R>(&self, call: Call, instance: u64, f: impl FnOnce() -> R) -> R;

    /// Run `f` as the timed region of one repetition (the part the
    /// end-to-end rates and latencies are taken over).
    fn region<R>(&self, f: impl FnOnce() -> R) -> R;
}

/// The probe of the timed binary: nothing is wrapped, nothing is recorded.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    type Wrapped<T: Transport> = T;

    #[inline(always)]
    fn wrap<T: Transport>(&self, inner: T) -> T {
        inner
    }

    #[inline(always)]
    fn span<R>(&self, _call: Call, _instance: u64, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn region<R>(&self, f: impl FnOnce() -> R) -> R {
        f()
    }
}
