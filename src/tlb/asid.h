// ASID allocation shared by every memory manager (CortenMM and the three
// baselines): one TLB tags its entries by ASID, so two live address spaces
// must never hold the same one. The allocator hands out free ASIDs from one
// bitmap and takes one back only when its owner's teardown has invalidated
// it on every CPU that may cache it — so a recycled ASID starts with no TLB
// entry anywhere.
#ifndef SRC_TLB_ASID_H_
#define SRC_TLB_ASID_H_

#include "src/tlb/tlb.h"

namespace cortenmm {

// Returns an ASID no live space holds. ASID 0 is never handed out. Aborts
// with a diagnostic if all 65535 are live.
Asid AllocAsid();

// Returns |asid| to the pool. The caller must already have invalidated it on
// every CPU its space ran on, and completed any lazy shootdown naming it.
void FreeAsid(Asid asid);

}  // namespace cortenmm

#endif  // SRC_TLB_ASID_H_
