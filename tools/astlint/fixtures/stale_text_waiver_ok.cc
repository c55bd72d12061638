// plain comment, no waiver
int width = 0;
