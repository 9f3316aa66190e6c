//! Corpus shape and planting specifications.

/// Shape of the synthetic IEEE-style article collection.
///
/// The paper evaluates against INEX: "technical articles from IEEE
/// Transactions marked up in XML: 18 million XML elements with a total size
/// of 500 MB". The defaults here produce the same *structure* (article →
/// front-matter + body → sections → subsections → paragraphs) at roughly
/// 1/20 that node count so the full experiment suite runs on a laptop; pass
/// a larger spec to approach paper scale.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Number of articles (one XML document each).
    pub articles: usize,
    /// `<sec>` elements per article body.
    pub sections_per_article: usize,
    /// `<ss1>` elements per section.
    pub subsections_per_section: usize,
    /// `<p>` elements per subsection.
    pub paragraphs_per_subsection: usize,
    /// Mean background words per paragraph (actual counts jitter ±50%).
    pub words_per_paragraph: usize,
    /// Background vocabulary size (terms `w0` … `w{n-1}`).
    pub vocab_size: usize,
    /// Zipf exponent for the background vocabulary.
    pub zipf_exponent: f64,
    /// Master seed; equal specs and seeds generate identical corpora.
    pub seed: u64,
}

impl Default for CorpusSpec {
    /// The benchmark-scale corpus: ~900 k stored nodes, ~5 M tokens.
    fn default() -> Self {
        CorpusSpec {
            articles: 3000,
            sections_per_article: 5,
            subsections_per_section: 4,
            paragraphs_per_subsection: 5,
            words_per_paragraph: 18,
            vocab_size: 20_000,
            zipf_exponent: 1.07,
            seed: 0xF1E2_D3C4_B5A6_9788,
        }
    }
}

impl CorpusSpec {
    /// A corpus small enough for unit tests (hundreds of nodes).
    pub fn tiny() -> Self {
        CorpusSpec {
            articles: 4,
            sections_per_article: 2,
            subsections_per_section: 2,
            paragraphs_per_subsection: 3,
            words_per_paragraph: 8,
            vocab_size: 200,
            zipf_exponent: 1.07,
            seed: 7,
        }
    }

    /// A mid-size corpus for fast benches and integration tests
    /// (~60 k stored nodes).
    pub fn small() -> Self {
        CorpusSpec {
            articles: 200,
            sections_per_article: 4,
            subsections_per_section: 3,
            paragraphs_per_subsection: 4,
            words_per_paragraph: 15,
            vocab_size: 5_000,
            zipf_exponent: 1.07,
            seed: 11,
        }
    }

    /// Scale this spec's article count so the generated XML totals
    /// roughly `bytes` on disk (the per-article shape — sections,
    /// paragraphs, vocabulary — is kept; only `articles` changes).
    /// Combined with [`crate::Generator::documents`]' streaming
    /// generation, corpora far larger than memory can be produced.
    pub fn with_target_bytes(mut self, bytes: u64) -> Self {
        let per_article = (self.approx_bytes() / self.articles.max(1) as u64).max(1);
        self.articles = usize::try_from((bytes / per_article).max(1)).unwrap_or(usize::MAX);
        self
    }

    /// Rough serialized-XML size estimate in bytes, for sizing corpora by
    /// target footprint. Background words average ~6 bytes plus a
    /// separator; element overhead is counted per node.
    pub fn approx_bytes(&self) -> u64 {
        let word = 7u64;
        let per_paragraph = self.words_per_paragraph as u64 * word + 9; // <p></p>
        let per_subsection = 12 + self.paragraphs_per_subsection as u64 * per_paragraph;
        let per_section = 30 + 4 * word + self.subsections_per_section as u64 * per_subsection;
        // Front matter: article/fm/bdy tags, title, authors.
        let per_article = 150 + 6 * word + self.sections_per_article as u64 * per_section;
        self.articles as u64 * per_article
    }

    /// Total number of `<p>` paragraphs the corpus will contain.
    pub fn paragraph_count(&self) -> usize {
        self.articles
            * self.sections_per_article
            * self.subsections_per_section
            * self.paragraphs_per_subsection
    }

    /// Rough stored-node estimate (elements + text nodes), for sizing
    /// reports.
    pub fn approx_nodes(&self) -> usize {
        // Per paragraph: <p> + text. Per subsection: <ss1> + <st> + title
        // text. Per section: <sec> + <st> + title text. Per article:
        // <article> + <fm> + <atl> + title text + 2 authors × 4 nodes +
        // <bdy>.
        let per_article = 1 + 1 + 1 + 1 + 2 * 4 + 1;
        let per_section = 3;
        let per_subsection = 3;
        let per_paragraph = 2;
        self.articles
            * (per_article
                + self.sections_per_article
                    * (per_section
                        + self.subsections_per_section
                            * (per_subsection + self.paragraphs_per_subsection * per_paragraph)))
    }
}

/// One planted term: `term` will occur exactly `count` times across the
/// corpus, uniformly spread over paragraphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlantedTerm {
    /// The term (must be lowercase alphanumeric; must not collide with the
    /// background vocabulary's `w{digits}` namespace).
    pub term: String,
    /// Exact number of occurrences to plant.
    pub count: usize,
}

/// A planted two-term phrase for the PhraseFinder experiments (Table 5).
///
/// * `adjacent` paragraphs receive the exact phrase `first second`;
/// * `cooccurring` paragraphs receive both terms separated by at least one
///   background word (they satisfy a term-intersection but not the phrase).
///
/// Each adjacent/cooccurring planting contributes one occurrence of each
/// term; add standalone [`PlantedTerm`] entries to reach a target total
/// frequency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlantedPhrase {
    /// First phrase term.
    pub first: String,
    /// Second phrase term.
    pub second: String,
    /// Number of paragraphs with the terms adjacent, in order.
    pub adjacent: usize,
    /// Number of paragraphs with both terms present but not adjacent.
    pub cooccurring: usize,
}

/// Everything to plant into a corpus.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlantSpec {
    /// Standalone term plantings.
    pub terms: Vec<PlantedTerm>,
    /// Phrase plantings.
    pub phrases: Vec<PlantedPhrase>,
}

impl PlantSpec {
    /// Add a standalone planted term (builder style).
    pub fn with_term(mut self, term: &str, count: usize) -> Self {
        self.terms.push(PlantedTerm {
            term: term.to_string(),
            count,
        });
        self
    }

    /// Add a planted phrase (builder style).
    pub fn with_phrase(
        mut self,
        first: &str,
        second: &str,
        adjacent: usize,
        cooccurring: usize,
    ) -> Self {
        self.phrases.push(PlantedPhrase {
            first: first.to_string(),
            second: second.to_string(),
            adjacent,
            cooccurring,
        });
        self
    }

    /// Total individual plant operations (for sanity checks against
    /// paragraph capacity).
    pub fn total_insertions(&self) -> usize {
        self.terms.iter().map(|t| t.count).sum::<usize>()
            + self
                .phrases
                .iter()
                .map(|p| p.adjacent + p.cooccurring)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paragraph_count() {
        let spec = CorpusSpec::tiny();
        assert_eq!(spec.paragraph_count(), 4 * 2 * 2 * 3);
    }

    #[test]
    fn default_is_bench_scale() {
        let spec = CorpusSpec::default();
        assert!(spec.approx_nodes() > 500_000);
        assert!(spec.approx_nodes() < 3_000_000);
    }

    #[test]
    fn target_bytes_scales_article_count() {
        let base = CorpusSpec::default();
        let half = base.clone().with_target_bytes(base.approx_bytes() / 2);
        assert!(half.articles >= base.articles / 2 - 1 && half.articles <= base.articles / 2 + 1);
        // Only the article count changes; the per-article shape is kept.
        assert_eq!(half.sections_per_article, base.sections_per_article);
        assert_eq!(half.vocab_size, base.vocab_size);
        // A tiny target still yields a generatable corpus.
        assert!(CorpusSpec::default().with_target_bytes(1).articles >= 1);
    }

    #[test]
    fn inex_preset_is_paper_scale() {
        // The paper's evaluation corpus: INEX, "technical articles from
        // IEEE Transactions marked up in XML: 18 million XML elements with
        // a total size of 500 MB".
        let inex = CorpusSpec::default().with_target_bytes(500 * 1024 * 1024);
        let bytes = inex.approx_bytes();
        assert!(
            (400 * 1024 * 1024..650 * 1024 * 1024).contains(&bytes),
            "estimated {bytes} bytes"
        );
        // The paper quotes 18 M elements for 500 MB; the synthetic shape
        // lands within a factor of ~4 of that density.
        assert!(inex.approx_nodes() > 4_000_000, "{}", inex.approx_nodes());
    }

    #[test]
    fn plant_builder() {
        let plants = PlantSpec::default()
            .with_term("alpha", 10)
            .with_phrase("beta", "gamma", 3, 4);
        assert_eq!(plants.total_insertions(), 17);
    }
}
