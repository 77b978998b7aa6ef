//! Bulk tenant spawning for fleet-scale multiprogramming.
//!
//! A fleet run wants *thousands* of processes, but nearly all of them
//! are instances of a handful of programs. Loading each one through the
//! full [`Loader`] pipeline would relocate, place and predecode the
//! same text a thousand times over. [`spawn_tenants`] instead loads
//! each [`TenantClass`] **once** into a template [`AddressSpace`] and spawns
//! its tenants as [`AddressSpace::fork_shared_code`] forks: copy-on-
//! write pages, one shared [`ProcessImage`](dynlink_linker::ProcessImage)
//! behind an [`Arc`], and —
//! until a tenant's code state diverges — a single fetch-side
//! `code_uid`, so the machine's predecode and superblock caches hold
//! one copy of the class's text no matter how many tenants run it.
//!
//! What stays *per tenant*: the live
//! [`ResolutionTable`](dynlink_linker::ResolutionTable) (lazy binding
//! and `dlopen`/`dlclose` churn are private), the stack mapping, the
//! ASID, and the GOT pages the moment a tenant writes one (COW). Each
//! tenant is added through the same [`BootParts::add`] as every other
//! process, so a tenant boots exactly like a process loaded on its own.

use std::sync::Arc;

use dynlink_linker::{LinkOptions, Loader, ModuleSpec};
use dynlink_mem::AddressSpace;

use crate::multi::BootParts;
use crate::SystemError;

/// A program template plus how many tenant processes run it.
///
/// All tenants of a class share one loaded image (same placement, same
/// ASLR seed, same link mode); per-tenant state diverges only through
/// execution. Classes are laid out class-major: the fleet's process
/// indices `0..classes[0].tenants` belong to class 0, and so on.
#[derive(Clone, Debug)]
pub struct TenantClass {
    /// The modules linked into every tenant of this class.
    pub modules: Vec<ModuleSpec>,
    /// Link options shared by the whole class.
    pub options: LinkOptions,
    /// How many tenant processes to spawn from the template.
    pub tenants: usize,
}

/// Loads each class once and forks its tenants into the same
/// [`BootParts`] the one-process-at-a-time constructors fill: tenant
/// `i` (global, class-major) gets ASID `i + 1` and its own stack of
/// `stack_bytes`.
pub(crate) fn spawn_tenants(
    classes: &[TenantClass],
    stack_bytes: u64,
) -> Result<BootParts, SystemError> {
    if classes.is_empty() || classes.iter().any(|c| c.tenants == 0) {
        return Err(SystemError::NoModules);
    }
    let mut parts = BootParts::default();
    for class in classes {
        // The template space never runs; ASID 0 matches the boot
        // placeholder and is immediately superseded by the forks.
        let mut template = AddressSpace::new(0);
        let image =
            Arc::new(Loader::new(class.options).load(&class.modules, "main", &mut template)?);
        for _ in 0..class.tenants {
            let space = template.fork_shared_code(parts.len() as u64 + 1);
            parts.add(Arc::clone(&image), class.options, space, stack_bytes)?;
        }
    }
    Ok(parts)
}
