"""Simulated clients: the load the multi-tenant front-end serves.

Each client belongs to a tenant, owns a smallfile-style working set
(``/t<T>/c<CLIENT>/f<N>``, 1 KB-ish files), and issues an
open/read/write mix. Two arrival disciplines:

- **closed-loop** (default): a client has at most one request in flight;
  after a completion it thinks for a jittered think time, then submits
  the next. Offered load self-throttles under congestion — the classic
  interactive-user model, and the right one for "what latency do N
  users see".
- **open-loop**: every request's arrival time is precomputed from the
  client's rate, regardless of completions. Load does *not* back off,
  so queues grow unboundedly past saturation — the right model for
  measuring tail collapse.

Determinism: every client gets its own ``random.Random`` seeded by
:func:`~repro.seeds.derive_point_seed` (CRC-based, stable
across processes and Python versions), and all think times, mix draws,
and file choices come from that stream. Same seed, same schedule —
always.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.seeds import derive_point_seed

#: Request operations, in mix-weight order.
OPS = ("write", "read", "append")

MODES = ("closed", "open")


@dataclass
class Request:
    """One client request travelling arrival -> queue -> service."""

    client: int
    tenant: str
    op: str          # "create" | "write" | "read" | "append" | "delete"
    path: str        # tenant-relative, e.g. "/c12/f3"
    size: int = 0    # payload bytes for writes/appends
    submitted_at: float = 0.0
    started_at: float = 0.0
    completed_at: float = 0.0

    @property
    def cost(self) -> float:
        """Fairness cost in KB of payload (min 1 per request)."""
        return max(1.0, self.size / 1024.0)

    @property
    def wait(self) -> float:
        return self.started_at - self.submitted_at

    @property
    def latency(self) -> float:
        return self.completed_at - self.submitted_at


@dataclass
class WorkloadConfig:
    """Shape of the generated load (everything derived from ``seed``).

    ``ops_per_client`` counts post-setup requests; every client first
    creates its ``files_per_client`` working-set files (those creates
    are requests too, and are measured — cold-start is part of life).
    A client's requests ramp in over ``ramp_seconds`` so 10k clients do
    not all arrive at t=0.
    """

    clients: int = 100
    tenants: int = 4
    ops_per_client: int = 4
    files_per_client: int = 2
    file_size: int = 1024
    mode: str = "closed"
    think_seconds: float = 0.25
    open_rate: float = 4.0          # requests/sec per client (open-loop)
    ramp_seconds: float = 1.0
    #: op mix weights over OPS = (write, read, append)
    mix: tuple[float, float, float] = (0.45, 0.40, 0.15)
    seed: int = 42
    #: extra fraction of the client population assigned to tenant 0 on
    #: top of its round-robin share — the asymmetric load that separates
    #: FIFO from DRR (0.0 = symmetric tenants)
    heavy_fraction: float = 0.0
    #: commit every mutating request with a per-handle ``fsync`` before
    #: completion — the mail-server/database pattern (paper §5.1); pair
    #: with NVM staging to measure what the board buys under real load
    sync_writes: bool = False

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if not 1 <= self.tenants <= self.clients:
            raise ValueError("tenants must be in [1, clients]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.ops_per_client < 0 or self.files_per_client < 1:
            raise ValueError("ops_per_client must be >= 0, files_per_client >= 1")
        if min(self.mix) < 0 or sum(self.mix) <= 0:
            raise ValueError("mix weights must be non-negative and sum > 0")
        if not 0.0 <= self.heavy_fraction < 1.0:
            raise ValueError("heavy_fraction must be in [0, 1)")

    def tenant_of(self, client: int) -> int:
        """Tenant index of one client.

        The first ``heavy_fraction`` of clients all belong to tenant 0
        (the aggressor); the rest are assigned round-robin across every
        tenant, so all tenants stay populated.
        """
        if client < int(self.clients * self.heavy_fraction):
            return 0
        return client % self.tenants


class Client:
    """One simulated client: a private RNG and a request cursor."""

    __slots__ = ("cid", "tenant", "rng", "issued", "budget", "files",
                 "file_size", "think_seconds", "mix_cdf", "_created")

    def __init__(self, cid: int, tenant: str, cfg: WorkloadConfig) -> None:
        self.cid = cid
        self.tenant = tenant
        self.rng = random.Random(derive_point_seed(cfg.seed, "client", cid))
        self.issued = 0
        # setup creates + measured ops
        self.budget = cfg.files_per_client + cfg.ops_per_client
        self.files = cfg.files_per_client
        self.file_size = cfg.file_size
        self.think_seconds = cfg.think_seconds
        total = sum(cfg.mix)
        acc, cdf = 0.0, []
        for w in cfg.mix:
            acc += w / total
            cdf.append(acc)
        self.mix_cdf = cdf
        self._created = 0

    @property
    def done(self) -> bool:
        return self.issued >= self.budget

    def think_time(self) -> float:
        """Jittered think delay: uniform in [0.5, 1.5] x think_seconds."""
        return self.think_seconds * (0.5 + self.rng.random())

    def next_request(self) -> Request:
        """The client's next request (setup creates, then the mix)."""
        if self.done:
            raise RuntimeError(f"client {self.cid} exhausted its budget")
        self.issued += 1
        if self._created < self.files:
            idx = self._created
            self._created += 1
            return Request(
                client=self.cid, tenant=self.tenant, op="create",
                path=f"/c{self.cid}/f{idx}", size=self.file_size,
            )
        draw = self.rng.random()
        op = OPS[-1]
        for i, edge in enumerate(self.mix_cdf):
            if draw <= edge:
                op = OPS[i]
                break
        fidx = self.rng.randrange(self.files)
        size = self.file_size if op in ("write", "append") else 0
        return Request(
            client=self.cid, tenant=self.tenant, op=op,
            path=f"/c{self.cid}/f{fidx}", size=size,
        )


class LoadGenerator:
    """Builds the client population and drives arrivals on the loop.

    ``install(loop, server)`` schedules every client's first arrival;
    closed-loop clients are re-armed by the server's completion callback
    (:meth:`on_complete`), open-loop clients precompute their whole
    arrival schedule up front.
    """

    def __init__(self, cfg: WorkloadConfig) -> None:
        self.cfg = cfg
        self.clients: list[Client] = [
            Client(cid, f"t{cfg.tenant_of(cid)}", cfg) for cid in range(cfg.clients)
        ]
        self.requests_submitted = 0

    def tenant_ids(self) -> list[str]:
        return [f"t{i}" for i in range(self.cfg.tenants)]

    def install(self, loop, server) -> None:
        self._server = server
        for client in self.clients:
            if client.done:
                continue
            start = client.rng.random() * self.cfg.ramp_seconds
            if self.cfg.mode == "open":
                # Precompute the whole schedule: arrivals ignore service.
                when = start
                for _ in range(client.budget):
                    loop.at(when, "client.arrive",
                            self._arrival_callback(client))
                    when += self._interarrival(client)
            else:
                loop.at(start, "client.arrive", self._arrival_callback(client))

    def _interarrival(self, client: Client) -> float:
        # Jittered fixed-rate stream (uniform, not exponential: bounded
        # burstiness keeps small smoke runs from degenerate schedules).
        return (0.5 + client.rng.random()) / self.cfg.open_rate

    def _arrival_callback(self, client: Client):
        def fire(loop) -> None:
            if client.done:
                return
            self.requests_submitted += 1
            self._server.submit(client.next_request())
        return fire

    def on_complete(self, loop, request: Request) -> None:
        """Server completion hook: re-arm closed-loop clients."""
        if self.cfg.mode != "closed":
            return
        client = self.clients[request.client]
        if not client.done:
            loop.after(client.think_time(), "client.think",
                       self._arrival_callback(client))
