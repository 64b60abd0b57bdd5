//! Machine-readable taxonomy of multiple-clustering algorithms.
//!
//! Slides 20–22 and 115–122 classify every surveyed method along six axes:
//! underlying search space, processing mode, use of given knowledge, number
//! of clusterings produced, subspace/dissimilarity awareness, and
//! flexibility of the cluster definition. Every algorithm in this workspace
//! carries an [`AlgorithmCard`] with its position on those axes, and the
//! harness regenerates the slide-116 comparison table from the cards
//! (experiment T1) — the taxonomy is *data*, not prose.

use std::fmt;

/// The search space an approach operates in (the primary taxonomy axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchSpace {
    /// Multiple clusterings in the original data space (section 2).
    Original,
    /// Orthogonal/learned space transformations (section 3).
    Transformed,
    /// Different axis-parallel subspace projections (section 4).
    Subspaces,
    /// Multiple given views/sources (section 5).
    MultiSource,
}

/// How further solutions are computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Processing {
    /// Solutions generated independently, dissimilarity checked post hoc
    /// (meta clustering).
    Independent,
    /// One solution after another, each conditioned on the previous.
    Iterative,
    /// All solutions produced by one combined optimisation.
    Simultaneous,
    /// Not applicable (single-solution / consensus methods).
    NotApplicable,
}

/// Whether prior knowledge is consumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GivenKnowledge {
    /// No clustering given.
    None,
    /// One (or more) given clustering(s) steer the search.
    GivenClustering,
}

/// How many clustering solutions the method produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Solutions {
    /// Exactly one (consensus / traditional).
    One,
    /// Exactly two (a given solution plus one alternative).
    Two,
    /// Two or more (parameterised or data-determined).
    AtLeastTwo,
}

/// Awareness of views/subspaces and their dissimilarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubspaceAwareness {
    /// Operates in one (full) space; the axis does not apply.
    NotApplicable,
    /// Finds subspaces but does not enforce their dissimilarity.
    NoDissimilarity,
    /// Enforces dissimilar subspaces/views.
    Dissimilarity,
    /// Views are supplied as input sources.
    GivenViews,
}

/// Whether the underlying cluster definition can be exchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flexibility {
    /// The method is bound to a specific cluster definition.
    Specialized,
    /// Any clustering algorithm can be plugged in.
    ExchangeableDefinition,
}

/// One row of the taxonomy table: an algorithm and its classification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlgorithmCard {
    /// Algorithm name as used in this workspace.
    pub name: &'static str,
    /// Literature reference in the tutorial's citation style.
    pub reference: &'static str,
    /// Primary axis: search space.
    pub space: SearchSpace,
    /// Processing mode.
    pub processing: Processing,
    /// Use of given knowledge.
    pub knowledge: GivenKnowledge,
    /// Number of solutions produced.
    pub solutions: Solutions,
    /// Subspace/view dissimilarity awareness.
    pub subspace: SubspaceAwareness,
    /// Flexibility of the cluster definition.
    pub flexibility: Flexibility,
}

impl fmt::Display for SearchSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Self::Original => "original",
            Self::Transformed => "transformed",
            Self::Subspaces => "subspaces",
            Self::MultiSource => "multi-source",
        })
    }
}

impl fmt::Display for Processing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Self::Independent => "independent",
            Self::Iterative => "iterative",
            Self::Simultaneous => "simultaneous",
            Self::NotApplicable => "-",
        })
    }
}

impl fmt::Display for GivenKnowledge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Self::None => "no",
            Self::GivenClustering => "given clustering",
        })
    }
}

impl fmt::Display for Solutions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Self::One => "m = 1",
            Self::Two => "m = 2",
            Self::AtLeastTwo => "m >= 2",
        })
    }
}

impl fmt::Display for SubspaceAwareness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Self::NotApplicable => "-",
            Self::NoDissimilarity => "no dissimilarity",
            Self::Dissimilarity => "dissimilarity",
            Self::GivenViews => "given views",
        })
    }
}

impl fmt::Display for Flexibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Self::Specialized => "specialized",
            Self::ExchangeableDefinition => "exchang. def.",
        })
    }
}

/// Renders the slide-116 comparison table from a set of cards, ordered by
/// search-space section as in the tutorial.
pub fn render_taxonomy_table(cards: &[AlgorithmCard]) -> String {
    let mut sorted: Vec<&AlgorithmCard> = cards.iter().collect();
    sorted.sort_by_key(|c| {
        (
            match c.space {
                SearchSpace::Original => 0,
                SearchSpace::Transformed => 1,
                SearchSpace::Subspaces => 2,
                SearchSpace::MultiSource => 3,
            },
            c.name,
        )
    });

    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} | {:<22} | {:<12} | {:<12} | {:<16} | {:<7} | {:<16} | {}\n",
        "algorithm", "reference", "space", "processing", "given know.", "# clust",
        "subspace detec.", "flexibility"
    ));
    out.push_str(&"-".repeat(136));
    out.push('\n');
    for c in sorted {
        out.push_str(&format!(
            "{:<22} | {:<22} | {:<12} | {:<12} | {:<16} | {:<7} | {:<16} | {}\n",
            c.name, c.reference, c.space, c.processing, c.knowledge, c.solutions,
            c.subspace, c.flexibility
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coala_card() -> AlgorithmCard {
        AlgorithmCard {
            name: "COALA",
            reference: "Bae & Bailey 2006",
            space: SearchSpace::Original,
            processing: Processing::Iterative,
            knowledge: GivenKnowledge::GivenClustering,
            solutions: Solutions::Two,
            subspace: SubspaceAwareness::NotApplicable,
            flexibility: Flexibility::Specialized,
        }
    }

    #[test]
    fn display_variants() {
        assert_eq!(SearchSpace::MultiSource.to_string(), "multi-source");
        assert_eq!(Processing::Simultaneous.to_string(), "simultaneous");
        assert_eq!(Solutions::AtLeastTwo.to_string(), "m >= 2");
        assert_eq!(Flexibility::ExchangeableDefinition.to_string(), "exchang. def.");
    }

    #[test]
    fn table_contains_rows_in_section_order() {
        let mut dec = coala_card();
        dec.name = "DecKMeans";
        dec.space = SearchSpace::Subspaces;
        let table = render_taxonomy_table(&[dec.clone(), coala_card()]);
        let coala_pos = table.find("COALA").unwrap();
        let dec_pos = table.find("DecKMeans").unwrap();
        assert!(coala_pos < dec_pos, "original-space rows precede subspace rows");
        assert!(table.contains("Bae & Bailey 2006"));
    }
}
