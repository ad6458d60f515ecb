"""Off-chip predictors and the shared hashed-perceptron machinery."""
