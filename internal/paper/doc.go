// Package paper maps every theorem, corollary, lemma and observation of
// Kawald & Lenzner (SPAA'13) to an executable validation. It contains no
// production code — only the cross-package tests that tie the library back
// to the paper's claims:
//
//	Theorem 2.1    MAX-SG on trees is a poly-FIPG (O(n^3) convergence)
//	Theorem 2.11   MAX-SG on trees + max cost policy: Theta(n log n)
//	Observation 2.9/2.12/2.13, Lemma 2.6/2.8 (tree structure facts)
//	Theorem 2.16   MAX-SG best response cycle (via internal/cycles)
//	Corollary 3.1  (A)SG on trees converge in O(n^3)
//	Corollary 3.2  ASG on trees + max cost policy step bounds; its median
//	               argument: a SUM leaf's best swaps reach the 1-medians of
//	               G-u (oracle: internal/median)
//	Theorem 3.3    SUM-ASG not weakly acyclic under best response
//	Theorem 3.5    MAX-ASG admits best response cycles
//	Theorem 3.7    unit-budget ASG best response cycles
//	Theorem 4.1    (G)BG best response cycles
//	Corollary 3.6 / 4.2  host-graph non-weak-acyclicity (with errata)
//	Theorem 5.1/5.2 bilateral equal-split BG dynamics
//	Sections 3.4 / 4.2  empirical convergence study (internal/experiments)
//	Section 1.1    the process moves one agent at a time; README "Dynamics
//	               schedules": singleton rounds replay it move for move,
//	               first-writer-wins rounds oscillate where it converges
package paper
