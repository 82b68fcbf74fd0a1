//! Recompilation after an edit: lower the post-edit diagram afresh.
//!
//! The paper's change-impact analysis (§1.3) confines an edit to its
//! changed regions, and [`fw_core::MaintainedFdd`] already applies it where
//! it pays: patching the diagram along the edited corridor instead of
//! rebuilding it from the rule list. Lowering the patched diagram is then
//! one linear pass over its nodes, so there is exactly one way to produce
//! an image — [`CompiledFdd::compile`] — and [`CompiledFdd::recompile`] is
//! that call under the name edit pipelines have always used.

use fw_core::{ChangeImpact, Fdd};
use serde::{Deserialize, Serialize};

use crate::{CompiledFdd, ExecError};

/// Accounting for one recompile.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecompileStats {
    /// Nodes lowered for the new image — all of them.
    pub nodes_fresh: usize,
}

impl CompiledFdd {
    /// Compiles the post-edit diagram `fdd` into a new image, returning it
    /// with its [`RecompileStats`].
    ///
    /// This is [`CompiledFdd::compile`]: it reads neither this image nor
    /// `impact`, and the result is the image a fresh compile of `fdd`
    /// produces (cold — no profile, no specialized twin). The signature is
    /// kept so an edit pipeline can say what it is recompiling from.
    ///
    /// # Errors
    ///
    /// As for [`CompiledFdd::compile`].
    pub fn recompile(
        &self,
        fdd: &Fdd,
        _impact: &ChangeImpact,
    ) -> Result<(CompiledFdd, RecompileStats), ExecError> {
        let next = CompiledFdd::compile(fdd)?;
        let stats = RecompileStats {
            nodes_fresh: next.node_count(),
        };
        Ok((next, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_core::Edit;

    #[test]
    fn recompile_is_a_fresh_compile_of_the_post_edit_diagram() {
        let fw = fw_synth::Synthesizer::new(11).firewall(60);
        let old = CompiledFdd::from_firewall(&fw).unwrap();
        let flipped = fw.rules()[3].with_decision(fw.rules()[3].decision().inverted());
        let (after, impact) = ChangeImpact::of_edits(
            &fw,
            &[Edit::Replace {
                index: 3,
                rule: flipped,
            }],
        )
        .unwrap();
        let fdd = Fdd::from_firewall_fast(&after).unwrap().reduced();
        let (next, stats) = old.recompile(&fdd, &impact).unwrap();
        assert_eq!(next, CompiledFdd::compile(&fdd).unwrap());
        assert_eq!(stats.nodes_fresh, next.node_count());
    }
}
