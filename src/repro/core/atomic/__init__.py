"""Extension: an *atomic* storage via reader write-back (beyond the paper).

The paper stops at regular semantics and notes (Section 1) that
comparable *atomic* data-centric storages either are not optimally
resilient or do not achieve the optimal worst-case read time.  This
subpackage implements the classic upgrade on top of the Section 5 regular
protocol: before returning candidate ``c``, the reader **writes ``c``
back** to a quorum, so every subsequent read finds at least ``b + 1``
correct witnesses of ``c`` and can never observe an older value --
eliminating the new/old inversion that separates regular from atomic.

Costs, consistent with the paper's remark:

* READ takes up to **3** rounds (two evidence rounds + write-back; 2 when
  round 1 decides) -- deliberately *not* 2, matching the literature's
  observation that optimal-resilience atomic reads do not match the
  2-round bound;
* objects accept history entries from readers (who are non-malicious in
  the model -- clients only crash), guarded so reader write-backs can
  complete but never overwrite a *complete* slot with different content.

Status: extension, validated empirically (atomicity checker over
adversarial + randomized schedules in tests and experiment E11); no
claim of a formal proof is made here.
"""

from .protocol import (AtomicReadOperation, AtomicObject,
                       AtomicStorageProtocol, WriteBack, WriteBackAck)

__all__ = [
    "AtomicStorageProtocol",
    "AtomicObject",
    "AtomicReadOperation",
    "WriteBack",
    "WriteBackAck",
]
