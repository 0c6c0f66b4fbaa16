//! # cxm-classify
//!
//! Classification substrate for contextual schema matching
//! (*Putting Context into Schema Matching*, Bohannon et al., VLDB 2006).
//!
//! §3.2 of the paper builds its view-inference machinery on single-label
//! classifiers:
//!
//! * `SrcClassInfer` trains a classifier on a source attribute's values — "if h
//!   is a text attribute, a standard Naive Bayesian classifier is used, with
//!   the values tokenized into 3-grams. If h is a numeric attribute, a
//!   statistical classifier is used instead";
//! * `TgtClassInfer` keeps one classifier per basic type domain, trained on the
//!   values of every compatible *target* attribute, which tags source values
//!   with the target column they most resemble;
//! * the significance test compares either against `C_Naive`, the classifier
//!   that always answers the most common label.
//!
//! This crate provides exactly those pieces:
//!
//! * [`tokenize`] — the 3-gram tokenizer [`for_each_qgram`],
//! * [`naive_bayes`] — a multinomial Naive Bayes text classifier over 3-grams,
//! * [`numeric`] — a per-class Gaussian classifier for numeric values,
//! * [`majority`] — the naive majority-label classifier `C_Naive`,
//! * [`classifier`] — the common [`classifier::Classifier`] trait
//!   and a [`classifier::ValueClassifier`] that dispatches
//!   between the text and numeric classifiers based on the training data,
//! * [`telemetry`] — the work-unit counter that stands in for classifier
//!   runtime.

pub mod classifier;
pub mod majority;
pub mod naive_bayes;
pub mod numeric;
pub mod telemetry;
pub mod tokenize;

pub use classifier::{Classifier, ValueClassifier};
pub use majority::MajorityClassifier;
pub use naive_bayes::NaiveBayesClassifier;
pub use numeric::GaussianClassifier;
pub use tokenize::for_each_qgram;
