"""Billing models of the commercial FaaS platforms and the IaaS baseline.

Section 6.3 analyses cost along four axes: how users can optimise cost by
choosing memory sizes (Figure 5a), whether the pricing granularity is fair
(Figure 5b), when a dedicated VM becomes cheaper (Table 6), and the often
overlooked data-transfer charges on function output (Q4).  The models below
reproduce the pricing rules referenced by the paper (2020 list prices):

* **AWS Lambda** — $0.20 per million requests plus $0.0000166667 per GB-s of
  *declared* memory, duration rounded up to 100 ms.  HTTP API calls cost
  $1.00 per million requests metered in 512 kB payload increments; REST API
  calls cost $3.50 per million plus $0.09/GB egress.
* **Google Cloud Functions** — $0.40 per million requests, $0.0000025 per
  GB-s and $0.0000100 per GHz-s, duration rounded up to 100 ms, plus
  $0.12/GB egress.
* **Azure Functions** — $0.20 per million executions plus $0.000016 per GB-s
  of *average measured* memory rounded up to 128 MB, minimum 100 ms billed
  duration, plus $0.04-0.12/GB egress (we use $0.087, the first-tier rate).
* **IaaS** — flat hourly rental of a t2.micro instance ($0.0116/h).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..config import DYNAMIC_MEMORY, Provider
from ..exceptions import ConfigurationError
from ..utils.units import round_up


@dataclass(frozen=True)
class CostBreakdown:
    """Cost of one function invocation, split by charge type (USD)."""

    request_cost: float
    compute_cost: float
    storage_cost: float = 0.0
    egress_cost: float = 0.0

    @property
    def total(self) -> float:
        return self.request_cost + self.compute_cost + self.storage_cost + self.egress_cost

    def scaled(self, invocations: float) -> "CostBreakdown":
        """Scale every component by a number of invocations."""
        return CostBreakdown(
            request_cost=self.request_cost * invocations,
            compute_cost=self.compute_cost * invocations,
            storage_cost=self.storage_cost * invocations,
            egress_cost=self.egress_cost * invocations,
        )

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(
            request_cost=self.request_cost + other.request_cost,
            compute_cost=self.compute_cost + other.compute_cost,
            storage_cost=self.storage_cost + other.storage_cost,
            egress_cost=self.egress_cost + other.egress_cost,
        )


class CompiledBilling(NamedTuple):
    """Per-class billing constants (see :meth:`BillingModel.compile`)."""

    #: A VM bills its hourly price for the execution time and nothing else.
    is_vm: bool
    vm_price: float
    min_billed: float
    granularity: float
    gb_price: float
    #: Bill measured memory (Azure, or any dynamic allocation) instead of
    #: the declared allocation.
    bills_avg: bool
    #: Declared allocation in GB.
    mem_gb_const: float
    mem_gran: float
    mem_overhead: float
    #: ``(via_http, success)`` -> duration-independent ``(request, storage,
    #: egress)`` costs; a failed invocation returns no output.
    statics: dict

    def billed_duration(self, duration_s: float) -> float:
        """Round an execution duration up to the billing granularity."""
        return round_up(max(duration_s, self.min_billed), self.granularity)

    def billed_memory_gb(self, used_memory_mb: float) -> float:
        """Memory the provider charges for, in GB."""
        if self.bills_avg:
            return round_up(max(used_memory_mb, 1.0) + self.mem_overhead, self.mem_gran) / 1024.0
        return self.mem_gb_const

    def compute_cost(self, duration_s: float, billed_duration_s: float, used_memory_mb: float) -> float:
        """Duration-dependent cost of one invocation."""
        if self.is_vm:
            return duration_s / 3600.0 * self.vm_price
        return billed_duration_s * self.billed_memory_gb(used_memory_mb) * self.gb_price


@dataclass(frozen=True)
class BillingModel:
    """Pay-as-you-go pricing rules of one provider."""

    provider: Provider
    request_price_per_million: float
    gb_second_price: float
    duration_granularity_s: float
    memory_granularity_mb: int
    bills_average_memory: bool
    egress_price_per_gb: float
    http_api_price_per_million: float = 0.0
    http_api_payload_granularity_kb: float = 512.0
    minimum_billed_duration_s: float = 0.1
    storage_request_price_per_10k: float = 0.004
    vm_hourly_price: float = 0.0
    #: Memory of the host process included in the measured average when the
    #: provider bills measured memory (Azure meters the whole function-app
    #: instance — language worker included — not just the kernel's working
    #: set, which is why its dynamically allocated deployments cost more and
    #: cannot be tuned down, Section 6.3 Q1).
    billed_memory_overhead_mb: float = 0.0

    def _static_cost_components(
        self, output_bytes: int, storage_requests: int, via_http_api: bool
    ) -> tuple[float, float, float]:
        """(request, storage, egress) costs of one invocation.

        They depend only on the work profile, the trigger and the outcome,
        not on the sampled duration or memory.  A VM bills none of them.
        """
        if self.vm_hourly_price > 0:
            return (0.0, 0.0, 0.0)
        request_cost = self.request_price_per_million / 1e6
        if via_http_api and self.http_api_price_per_million > 0:
            payload_units = max(
                1.0,
                round_up(output_bytes / 1024.0, self.http_api_payload_granularity_kb)
                / self.http_api_payload_granularity_kb,
            )
            request_cost += self.http_api_price_per_million / 1e6 * payload_units
        storage_cost = storage_requests / 10_000.0 * self.storage_request_price_per_10k
        egress_cost = output_bytes / (1024.0**3) * self.egress_price_per_gb
        return (request_cost, storage_cost, egress_cost)

    def compile(self, memory_mb: int, output_bytes: int = 0, storage_requests: int = 0) -> CompiledBilling:
        """The billing constants every invocation of one function class shares.

        ``output_bytes`` and ``storage_requests`` are the class's output
        size and storage requests per invocation.  AWS and GCP charge the
        *declared* memory regardless of use; Azure measures average
        consumption and rounds it up to 128 MB.
        """
        return CompiledBilling(
            is_vm=self.vm_hourly_price > 0,
            vm_price=self.vm_hourly_price,
            min_billed=self.minimum_billed_duration_s,
            granularity=self.duration_granularity_s,
            gb_price=self.gb_second_price,
            bills_avg=self.bills_average_memory or memory_mb == DYNAMIC_MEMORY,
            mem_gb_const=float(memory_mb) / 1024.0,
            mem_gran=float(self.memory_granularity_mb),
            mem_overhead=self.billed_memory_overhead_mb,
            statics={
                (via_http, success): self._static_cost_components(
                    output_bytes if success else 0, storage_requests, via_http
                )
                for via_http in (False, True)
                for success in (False, True)
            },
        )

    def billed_duration(self, duration_s: float) -> float:
        """Round an execution duration up to the billing granularity."""
        if duration_s < 0:
            raise ConfigurationError("duration cannot be negative")
        return self.compile(DYNAMIC_MEMORY).billed_duration(duration_s)

    def billed_memory_mb(self, declared_memory_mb: int, used_memory_mb: float) -> float:
        """Memory the provider charges for."""
        return self.compile(declared_memory_mb).billed_memory_gb(used_memory_mb) * 1024.0

    def invocation_cost(
        self,
        duration_s: float,
        declared_memory_mb: int,
        used_memory_mb: float,
        output_bytes: int = 0,
        storage_requests: int = 0,
        via_http_api: bool = True,
        billed_duration_s: float | None = None,
    ) -> CostBreakdown:
        """Full cost of one invocation (request + compute + storage + egress).

        ``billed_duration_s`` lets a caller that already rounded the duration
        skip the second rounding pass.  A VM's cost is purely time-based
        (see :meth:`hourly_cost`).
        """
        compiled = self.compile(declared_memory_mb, output_bytes, storage_requests)
        if billed_duration_s is None and not compiled.is_vm:
            billed_duration_s = self.billed_duration(duration_s)
        request_cost, storage_cost, egress_cost = compiled.statics[(via_http_api, True)]
        return CostBreakdown(
            request_cost=request_cost,
            compute_cost=compiled.compute_cost(duration_s, billed_duration_s, used_memory_mb),
            storage_cost=storage_cost,
            egress_cost=egress_cost,
        )

    def cost_of_million(self, duration_s: float, declared_memory_mb: int, used_memory_mb: float) -> float:
        """Compute-plus-request cost of one million invocations (Figure 5a)."""
        single = self.invocation_cost(
            duration_s,
            declared_memory_mb,
            used_memory_mb,
            output_bytes=0,
            storage_requests=0,
            via_http_api=False,
        )
        return single.total * 1e6

    def hourly_cost(self) -> float:
        """Hourly price of the deployment (only meaningful for IaaS)."""
        return self.vm_hourly_price


_BILLING_MODELS: dict[Provider, BillingModel] = {
    Provider.AWS: BillingModel(
        provider=Provider.AWS,
        request_price_per_million=0.20,
        gb_second_price=0.0000166667,
        duration_granularity_s=0.1,
        memory_granularity_mb=1,
        bills_average_memory=False,
        # The HTTP API (available since Dec 2019) charges a flat per-request
        # fee metered in 512 kB increments and no separate egress; only the
        # older REST APIs add $0.09/GB, which is why the paper quotes ~$1 per
        # million invocations on AWS versus ~$9 on GCP/Azure (Section 6.3 Q4).
        egress_price_per_gb=0.0,
        http_api_price_per_million=1.00,
    ),
    Provider.GCP: BillingModel(
        provider=Provider.GCP,
        request_price_per_million=0.40,
        gb_second_price=0.0000025 + 0.0000100,  # GB-s plus GHz-s folded together
        duration_granularity_s=0.1,
        memory_granularity_mb=1,
        bills_average_memory=False,
        egress_price_per_gb=0.12,
    ),
    Provider.AZURE: BillingModel(
        provider=Provider.AZURE,
        request_price_per_million=0.20,
        gb_second_price=0.000016,
        duration_granularity_s=0.001,
        memory_granularity_mb=128,
        bills_average_memory=True,
        egress_price_per_gb=0.087,
        billed_memory_overhead_mb=600.0,
    ),
    Provider.IAAS: BillingModel(
        provider=Provider.IAAS,
        request_price_per_million=0.0,
        gb_second_price=0.0,
        duration_granularity_s=0.001,
        memory_granularity_mb=1,
        bills_average_memory=False,
        egress_price_per_gb=0.09,
        vm_hourly_price=0.0116,
    ),
    Provider.LOCAL: BillingModel(
        provider=Provider.LOCAL,
        request_price_per_million=0.0,
        gb_second_price=0.0,
        duration_granularity_s=0.001,
        memory_granularity_mb=1,
        bills_average_memory=False,
        egress_price_per_gb=0.0,
    ),
}


def billing_model_for(provider: Provider) -> BillingModel:
    """Return the billing model of ``provider`` (frozen, safe to share)."""
    return _BILLING_MODELS[provider]
